//! Output plumbing: JSON helpers, metrics, percentiles, the
//! prediction-log digest, and host metadata.

use std::time::Instant;

/// JSON output goes through the repository's `serde_json`, whose floats
/// print every digit the measurement has.
pub use serde_json::Value as Json;

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON string.
pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// Compact JSON text of `v`.
pub fn render(v: &Json) -> String {
    serde_json::to_string(v).expect("JSON values serialize")
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Collects metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn to_json(&self) -> Json {
        obj(self.0.iter().map(|m| {
            (
                m.name.clone(),
                obj([("value", Json::F64(m.value)), ("unit", text(&m.unit))]),
            )
        }))
    }
}

/// The value under `key` of a JSON object from the library (`None` when
/// `v` is no object or lacks the key).
pub fn field<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1); 0 when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts a sample ascending (total order) and returns it.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 0.5)
}

/// Incremental 64-bit FNV-1a over the prediction log's lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn line(&mut self, line: &str) {
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One prediction-log line: the fields the on-call engineer reads.
pub fn prediction_line(id: &str, p: &rcacopilot::core::RcaPrediction) -> String {
    format!(
        "{id} label={} unseen={} conf={:.6} compl={:.4} demos={}",
        p.label,
        p.unseen,
        p.confidence,
        p.completeness,
        p.demo_categories.join(",")
    )
}

/// Runs `make` `reps` times (`reps` ≥ 1), dropping each result before
/// the next run; returns the last result and every run's seconds.
pub fn timed_reps<T>(reps: usize, mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(make());
        times.push(secs_since(t0));
    }
    (last.expect("at least one rep"), times)
}

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|v| v.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// The checked-out commit, read from `.git` without spawning git;
/// `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// SplitMix64: the benchmark's seeded input draws.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by [`splitmix`].
pub fn shuffle<T>(xs: &mut [T], state: &mut u64) {
    for i in (1..xs.len()).rev() {
        let j = (splitmix(state) % (i as u64 + 1)) as usize;
        xs.swap(i, j);
    }
}
