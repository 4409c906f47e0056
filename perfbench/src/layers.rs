//! Per-layer metrics derived from the traced run's spans.
//!
//! Conventions (the README lists every metric):
//! - a time named after an operation (`aig.rewrite.ms`, `ml.train_s`,
//!   `attacks.sat.s`, ...) is the mean wall time of one call;
//! - a count is the total over one set-up plus one pass over the request
//!   list, so it is the same in every run with the same seed (unless the
//!   work itself races, as the portfolio solver's does);
//! - `<layer>.self_s` is the layer's self time per request: its spans'
//!   wall time minus their children's, with the oracle time the
//!   [`crate::wrap::TimedOracle`] measured inside an attack moved from
//!   `attacks` to `locking`;
//! - `unattributed` is the share of request time outside every layer
//!   span;
//! - a metric of a layer the workload never calls reads 0.

use crate::trace::{self_times, Span};
use crate::Metric;

/// The workspace crates the benchmark attributes time to.
pub const LAYERS: [&str; 9] = [
    "aig", "almost", "attacks", "ml", "locking", "sat", "cdcl", "netlist", "pool",
];

/// Synthesis passes, by span suffix.
pub const PASSES: [&str; 8] = [
    "rewrite",
    "rewrite_z",
    "refactor",
    "refactor_z",
    "resub",
    "resub_z",
    "balance",
    "fraig",
];

/// Spans recorded around attack runs (they carry the oracle and solver
/// counts).
const ATTACK_SPANS: [&str; 2] = ["attacks.sat", "attacks.double_dip"];

struct View<'a> {
    spans: &'a [Span],
    list_len: usize,
}

impl<'a> View<'a> {
    fn named(&self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Spans of the set-up and of the first pass over the request list.
    fn counted(&self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        let list_len = self.list_len;
        self.named(name)
            .filter(move |s| s.request.is_none_or(|r| r < list_len))
    }

    fn mean_secs(&self, name: &str) -> f64 {
        mean(self.named(name).map(Span::secs))
    }

    fn total(&self, name: &str, count: &str) -> f64 {
        self.counted(name).map(|s| s.count(count)).sum()
    }

    fn calls(&self, name: &str) -> f64 {
        self.counted(name).count() as f64
    }

    fn attack_total(&self, count: &str) -> f64 {
        ATTACK_SPANS.iter().map(|n| self.total(n, count)).sum()
    }

    fn attack_spans(&self) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(|s| ATTACK_SPANS.contains(&s.name))
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Derives every per-layer metric.
///
/// `spans` holds the traced set-up and the traced requests (request
/// sequence numbers below `list_len` are the first pass over the list).
/// `overheads` are traced-minus-untraced wall times of the same
/// requests, `cpu_util` the pool's measured CPU utilisation.
pub fn derive(spans: &[Span], list_len: usize, overheads: &[f64], cpu_util: f64) -> Vec<Metric> {
    let v = View { spans, list_len };
    let mut m = Vec::new();
    let mut put = |name: String, unit: &'static str, value: f64| {
        m.push(Metric {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        })
    };

    // aig
    for pass in PASSES {
        let span = format!("aig.{pass}");
        put(format!("{span}.ms"), "ms", 1e3 * v.mean_secs(&span));
        put(format!("{span}.calls"), "count", v.calls(&span));
        put(
            format!("{span}.and_ratio"),
            "ratio",
            ratio(v.total(&span, "ands_out"), v.total(&span, "ands_in")),
        );
    }
    put("aig.deploy_s".into(), "s", v.mean_secs("aig.deploy"));

    // almost
    let searches = v.named("almost.search").count() as f64;
    let search_s = v.mean_secs("almost.search");
    let score_s = ratio(
        v.named("almost.search.score").map(Span::secs).sum(),
        searches,
    );
    let search_total: f64 = v.named("almost.search").map(Span::secs).sum();
    let candidates: f64 = v
        .named("almost.search")
        .map(|s| s.count("candidates"))
        .sum();
    let hits = v.total("almost.search", "trie_hits");
    let misses = v.total("almost.search", "trie_misses");
    put(
        "almost.train_proxy_s".into(),
        "s",
        v.mean_secs("almost.train_proxy"),
    );
    put("almost.search_s".into(), "s", search_s);
    put("almost.search.score_s".into(), "s", score_s);
    put("almost.search.synth_s".into(), "s", search_s - score_s);
    put(
        "almost.search.cands_per_s".into(),
        "1/s",
        ratio(candidates, search_total),
    );
    put("almost.trie.hits".into(), "count", hits);
    put("almost.trie.misses".into(), "count", misses);
    put(
        "almost.trie.hit_ratio".into(),
        "ratio",
        ratio(hits, hits + misses),
    );

    // attacks
    put("attacks.omla_s".into(), "s", v.mean_secs("attacks.omla"));
    put(
        "attacks.omla.datagen_s".into(),
        "s",
        v.mean_secs("attacks.omla.datagen"),
    );
    put(
        "attacks.omla.predict_ms".into(),
        "ms",
        1e3 * v.mean_secs("attacks.omla.predict"),
    );
    put("attacks.sat.s".into(), "s", v.mean_secs("attacks.sat"));
    put(
        "attacks.sat.solve_s".into(),
        "s",
        mean(
            v.named("attacks.sat")
                .map(|s| s.secs() - s.count("oracle_s")),
        ),
    );
    put(
        "attacks.sat.dips".into(),
        "count",
        v.total("attacks.sat", "dips"),
    );
    put(
        "attacks.double_dip.s".into(),
        "s",
        v.mean_secs("attacks.double_dip"),
    );

    // ml
    let train_total: f64 = v.named("ml.train").map(Span::secs).sum();
    let epochs: f64 = v.named("ml.train").map(|s| s.count("epochs")).sum();
    put("ml.train_s".into(), "s", v.mean_secs("ml.train"));
    put("ml.epoch_ms".into(), "ms", 1e3 * ratio(train_total, epochs));
    put(
        "ml.tape_ops".into(),
        "count",
        v.total("ml.train", "tape_ops"),
    );
    put(
        "ml.tape_allocs".into(),
        "count",
        v.total("ml.train", "tape_allocs"),
    );

    // locking
    let oracle_total: f64 = v.attack_spans().map(|s| s.count("oracle_s")).sum();
    let patterns_total: f64 = v.attack_spans().map(|s| s.count("patterns")).sum();
    put(
        "locking.lock_ms".into(),
        "ms",
        1e3 * v.mean_secs("locking.lock"),
    );
    put(
        "locking.oracle.s".into(),
        "s",
        mean(v.attack_spans().map(|s| s.count("oracle_s"))),
    );
    put(
        "locking.oracle.patterns".into(),
        "count",
        v.attack_total("patterns"),
    );
    put(
        "locking.oracle.patterns_per_s".into(),
        "1/s",
        ratio(patterns_total, oracle_total),
    );

    // sat
    put("sat.cec.ms".into(), "ms", 1e3 * v.mean_secs("sat.cec"));
    put("sat.cec.calls".into(), "count", v.calls("sat.cec"));

    // cdcl
    let solve_total: f64 = v
        .attack_spans()
        .map(|s| s.secs() - s.count("oracle_s"))
        .sum();
    let conflicts_all: f64 = v.attack_spans().map(|s| s.count("conflicts")).sum();
    put(
        "cdcl.conflicts".into(),
        "count",
        v.attack_total("conflicts"),
    );
    put(
        "cdcl.decisions".into(),
        "count",
        v.attack_total("decisions"),
    );
    put(
        "cdcl.propagations".into(),
        "count",
        v.attack_total("propagations"),
    );
    put(
        "cdcl.conflicts_per_s".into(),
        "1/s",
        ratio(conflicts_all, solve_total),
    );
    put("cdcl.races".into(), "count", v.attack_total("races"));

    // netlist
    put(
        "netlist.map.ms".into(),
        "ms",
        1e3 * v.mean_secs("netlist.map"),
    );
    put(
        "netlist.analyze.ms".into(),
        "ms",
        1e3 * v.mean_secs("netlist.analyze"),
    );

    // pool
    put("pool.cpu_util".into(), "ratio", cpu_util);

    // Self time per layer and the unattributed share, over requests.
    let own = self_times(spans);
    let requests: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "request")
        .collect();
    let per_request = requests.len().max(1) as f64;
    // `cdcl` and `pool` run inside other layers' calls; they have no
    // spans of their own, only counts.
    for layer in LAYERS.iter().filter(|l| !matches!(**l, "cdcl" | "pool")) {
        let mut total: f64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.request.is_some() && s.name != "request" && s.layer() == *layer)
            .map(|(_, t)| t)
            .sum();
        let in_requests = || v.attack_spans().filter(|s| s.request.is_some());
        match *layer {
            "attacks" => total -= in_requests().map(|s| s.count("oracle_s")).sum::<f64>(),
            "locking" => total += in_requests().map(|s| s.count("oracle_s")).sum::<f64>(),
            _ => {}
        }
        put(format!("{layer}.self_s"), "s", total / per_request);
    }
    let request_total: f64 = requests.iter().map(|&i| spans[i].secs()).sum();
    let outside: f64 = requests.iter().map(|&i| own[i]).sum();
    put(
        "unattributed".into(),
        "%",
        100.0 * ratio(outside, request_total),
    );
    put("tracing_overhead_s".into(), "s", median(overheads));
    m
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
