//! Order statistics and the result line.

/// The median of `samples` (sorted in place); 0 for no samples.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5).0
}

/// The nearest-rank `q`-quantile of `samples` (sorted in place), together
/// with the quantile actually used.
pub fn quantile(samples: &mut [f64], q: f64) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, q);
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (samples[rank - 1], q)
}

/// Most windows a latency sample is cut into.
pub const MAX_WINDOWS: usize = 15;

/// The share of a run's time windows that may run faster than a
/// central metric reports. The host's speed drifts between states up to
/// 2x apart that last seconds to minutes, and the fast state's share
/// of a run varies from run to run; a median flips between the states
/// with that share, while the slower quartile stays with the slow state
/// as long as a run spends a quarter of its time there.
pub const SLOW_QUARTILE: f64 = 0.75;

/// The slower quartile of per-unit rates (batches, episodes): the rate
/// that a quarter of the units fell below.
pub fn slow_rate(rates: &mut [f64]) -> f64 {
    quantile(rates, 1.0 - SLOW_QUARTILE).0
}

/// The slower quartile of per-unit times (recoveries).
pub fn slow_time(times: &mut [f64]) -> f64 {
    quantile(times, SLOW_QUARTILE).0
}

/// A latency quantile over time windows: `samples` (in arrival order)
/// are cut into up to [`MAX_WINDOWS`] consecutive windows, each long
/// enough to have at least ten samples beyond the `q`-quantile (and at
/// least 200), and the `q`-quantile of each window is taken — lowered,
/// where even one window is too short, to the highest quantile with ten
/// samples beyond it. Returns the `across`-quantile of the windows'
/// values, with the quantile used and the window length.
pub fn windowed(samples: &[f64], q: f64, across: f64) -> (f64, f64, usize) {
    let needed = ((10.0 / (1.0 - q)).ceil() as usize).max(200);
    let windows = (samples.len() / needed).clamp(1, MAX_WINDOWS);
    let len = samples.len() / windows;
    let q = q.min(1.0 - 10.0 / len.max(1) as f64).max(0.5);
    let mut per_window: Vec<f64> = samples
        .chunks(len.max(1))
        .take(windows)
        .map(|w| quantile(&mut w.to_vec(), q).0)
        .collect();
    (quantile(&mut per_window, across).0, q, len)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
