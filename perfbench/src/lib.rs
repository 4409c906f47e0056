//! The ALMOST workspace benchmark.
//!
//! One process runs one workload as a closed loop with one client: set
//! up (several times, for `setup_s`), then issue the seeded request list
//! in order, the next request after the previous one completes, at
//! least once and until `--seconds` have passed. Every request's outputs
//! are checked. With tracing on, every request runs twice — untraced and
//! traced, alternating which goes first — so the same run yields the
//! per-layer metrics and the tracing overhead. See `README.md`.

pub mod config;
pub mod host;
pub mod json;
pub mod layers;
pub mod trace;
pub mod workloads;
pub mod wrap;

use config::{SETUP_MAX_REPEATS, SETUP_MIN_REPEATS, SETUP_MIN_SECS};
use json::Json;
use std::panic::AssertUnwindSafe;
use std::time::Instant;
use trace::{Span, Tracer};
use workloads::key_recovery::KeyRecovery;
use workloads::omla_attack::OmlaAttack;
use workloads::secure_flow::SecureFlow;
use workloads::{Bits, Outcome, Workload};

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["secure_flow", "omla_attack", "key_recovery"];

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of the request list.
    pub seed: u64,
    /// How long the request loop runs (it always completes the list
    /// once).
    pub seconds: f64,
    /// Whether to record spans and report per-layer metrics.
    pub trace: bool,
}

/// Everything a run produced.
pub struct Report {
    /// Host, configuration and request list.
    pub header: Json,
    /// Request samples, times and failures.
    pub summary: Json,
    /// Requests executed (traced executions included).
    pub attempted: usize,
    /// Executions with a failed output check.
    pub failed: usize,
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub metrics: Vec<Metric>,
    /// The output-quality metrics (the end-to-end metrics from
    /// `deployed_omla_acc_pct` on), computed traced and untraced.
    pub quality: Vec<Metric>,
    /// Recorded spans (empty untraced).
    pub spans: Vec<Span>,
    /// Deterministic outputs of the first pass over the list.
    pub fingerprints: Vec<String>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted as u64)),
            ("failed", Json::Int(self.failed as u64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
        .render()
    }
}

/// Runs the workload `options` names.
pub fn run(options: &Options) -> Result<Report, String> {
    match options.workload.as_str() {
        "secure_flow" => run_workload(
            &SecureFlow::new(options.seed),
            &config_of_secure_flow(),
            options,
        ),
        "omla_attack" => run_workload(
            &OmlaAttack::new(options.seed),
            &format!("{:?}", config::omla_attack_config()),
            options,
        ),
        "key_recovery" => run_workload(
            &KeyRecovery::new(options.seed),
            &format!(
                "exact={:?} appsat={:?} double_dip={:?}",
                config::exact_sat(),
                config::app_sat(),
                config::double_dip()
            ),
            options,
        ),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn config_of_secure_flow() -> String {
    format!(
        "proxy={:?} sa={:?} omla={:?}",
        config::secure_flow_proxy(),
        config::secure_flow_sa(),
        config::secure_flow_omla()
    )
}

fn header(options: &Options, requests: Vec<String>, config: &str) -> Json {
    Json::obj([
        ("workload", Json::str(&options.workload)),
        ("seed", Json::Int(options.seed)),
        ("seconds", Json::Num(options.seconds)),
        ("trace", Json::Bool(options.trace)),
        ("cpus", Json::Int(host::cpu_count() as u64)),
        ("cpu_model", Json::str(host::cpu_model())),
        ("git_revision", Json::str(host::git_revision())),
        ("pool_workers", Json::Int(almost_pool::num_workers() as u64)),
        (
            "portfolio_width",
            Json::Int(almost_sat::portfolio::default_width() as u64),
        ),
        ("config", Json::str(config)),
        (
            "requests",
            Json::Arr(requests.into_iter().map(Json::Str).collect()),
        ),
    ])
}

/// Metrics every workload reports untraced, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("request_s_p50", "s"),
    ("requests_per_min", "1/min"),
    ("checks_passed_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("deployed_omla_acc_pct", "%"),
    ("area_ratio", "ratio"),
    ("omla_acc_pct", "%"),
];

/// Index of the first output-quality metric in [`END_TO_END`].
const QUALITY_FROM: usize = 5;

/// Reported for an OMLA accuracy the workload does not measure: chance.
const CHANCE_PCT: f64 = 50.0;

fn run_workload<W: Workload>(
    workload: &W,
    config: &str,
    options: &Options,
) -> Result<Report, String> {
    let tracer = Tracer::new(false);
    let n = workload.num_requests();
    let described = workload.describe();

    // Each repeat rebuilds everything from scratch. A set-up of a few
    // milliseconds repeats until a second has been measured, so its
    // median is as steady as that of a long one.
    let mut setup_secs = Vec::new();
    let mut prepared = None;
    while setup_secs.len() < SETUP_MIN_REPEATS
        || (setup_secs.iter().sum::<f64>() < SETUP_MIN_SECS && setup_secs.len() < SETUP_MAX_REPEATS)
    {
        drop(prepared.take());
        let started = Instant::now();
        let built = workload.setup(&tracer)?;
        setup_secs.push(started.elapsed().as_secs_f64());
        prepared = Some(built);
    }
    if options.trace {
        // One more set-up, traced, for the set-up spans.
        drop(prepared.take());
        tracer.set_enabled(true);
        prepared = Some(tracer.span("setup", || workload.setup(&tracer))?);
        tracer.set_enabled(false);
    }
    let prepared = prepared.ok_or("no set-up ran")?;

    let cpu_start = host::cpu_seconds();
    let loop_start = Instant::now();
    let mut request_secs = Vec::new();
    let mut overheads = Vec::new();
    let mut first: Vec<Option<Outcome>> = vec![None; n];
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut seq = 0usize;
    loop {
        if seq >= n {
            let spent = loop_start.elapsed().as_secs_f64();
            if spent + spent / seq as f64 > options.seconds {
                break;
            }
        }
        let index = seq % n;
        let untraced = |tracer: &Tracer| {
            let started = Instant::now();
            let out = guarded(workload, &prepared, index, tracer);
            (out, started.elapsed().as_secs_f64())
        };
        let traced = |tracer: &Tracer| {
            tracer.set_enabled(true);
            let started = Instant::now();
            let out = tracer.request(seq, || guarded(workload, &prepared, index, tracer));
            let secs = started.elapsed().as_secs_f64();
            tracer.set_enabled(false);
            (out, secs)
        };
        let mut executions = Vec::with_capacity(2);
        if !options.trace {
            executions.push(untraced(&tracer));
        } else if seq.is_multiple_of(2) {
            executions.push(untraced(&tracer));
            executions.push(traced(&tracer));
        } else {
            let t = traced(&tracer);
            executions.push(untraced(&tracer));
            executions.push(t);
        }
        if let [(plain, plain_secs), (with_spans, traced_secs)] = &mut executions[..] {
            overheads.push(*traced_secs - *plain_secs);
            if plain.fingerprint != with_spans.fingerprint {
                with_spans.fail(format!(
                    "traced output `{}` differs from untraced `{}`",
                    with_spans.fingerprint, plain.fingerprint
                ));
            }
        }
        for (out, _) in &executions {
            attempted += 1;
            if !out.failures.is_empty() {
                failed += 1;
                failures.extend(out.failures.iter().map(|f| format!("request {seq}: {f}")));
            }
        }
        request_secs.push(executions[0].1);
        eprintln!(
            "[{}] request {seq} ({}) {:.3} s{}",
            options.workload,
            described[index],
            executions[0].1,
            if executions.iter().all(|(o, _)| o.failures.is_empty()) {
                ""
            } else {
                " FAILED"
            }
        );
        let (out, _) = executions.swap_remove(0);
        first[index].get_or_insert(out);
        seq += 1;
    }
    let loop_secs = loop_start.elapsed().as_secs_f64();
    let cpu_util =
        (host::cpu_seconds() - cpu_start) / (loop_secs * host::cpu_count() as f64).max(1e-9);

    let first: Vec<Outcome> = first.into_iter().flatten().collect();
    let spans = tracer.take();
    let untraced = end_to_end(&setup_secs, &request_secs, attempted, failed, &first);
    let quality = untraced[QUALITY_FROM..].to_vec();
    let metrics = if options.trace {
        layers::derive(&spans, n, &overheads, cpu_util)
    } else {
        untraced
    };
    for f in &failures {
        eprintln!("[{}] check failed: {f}", options.workload);
    }
    let num = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let summary = Json::obj([
        ("requests", Json::Int(request_secs.len() as u64)),
        ("request_s", num(&request_secs)),
        ("setup_s", num(&setup_secs)),
        ("tracing_overhead_s", num(&overheads)),
        (
            "failures",
            Json::Arr(failures.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    Ok(Report {
        header: header(options, described, config),
        summary,
        attempted,
        failed,
        metrics,
        quality,
        spans,
        fingerprints: first.iter().map(|o| o.fingerprint.clone()).collect(),
    })
}

/// Runs request `index`; a panic inside the library becomes a failed
/// check instead of ending the run.
fn guarded<W: Workload>(
    workload: &W,
    prepared: &W::Prepared,
    index: usize,
    tracer: &Tracer,
) -> Outcome {
    std::panic::catch_unwind(AssertUnwindSafe(|| workload.run(prepared, index, tracer)))
        .unwrap_or_else(|panic| {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            let mut out = Outcome::default();
            out.fail(format!("panicked: {message}"));
            out
        })
}

fn end_to_end(
    setup_secs: &[f64],
    request_secs: &[f64],
    attempted: usize,
    failed: usize,
    first: &[Outcome],
) -> Vec<Metric> {
    let mut deployed = Bits::default();
    let mut resyn2 = Bits::default();
    let mut areas = Vec::new();
    for out in first {
        deployed.add(out.deployed_bits);
        resyn2.add(out.resyn2_bits);
        areas.extend(out.area_ratio);
    }
    let busy: f64 = request_secs.iter().sum();
    let values = [
        layers::median(setup_secs),
        layers::median(request_secs),
        60.0 * request_secs.len() as f64 / busy,
        100.0 * (attempted - failed) as f64 / attempted.max(1) as f64,
        host::peak_rss_mb(),
        deployed.pct().unwrap_or(CHANCE_PCT),
        if areas.is_empty() {
            1.0
        } else {
            areas.iter().sum::<f64>() / areas.len() as f64
        },
        resyn2.pct().unwrap_or(CHANCE_PCT),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.into(),
            unit,
            value,
        })
        .collect()
}

/// Writes the spans as a Chrome trace (loadable in Perfetto), one
/// request per track.
pub fn chrome_trace(header: &Json, spans: &[Span]) -> String {
    let events = spans.iter().enumerate().map(|(i, s)| {
        let mut args: Vec<(String, Json)> = vec![("span".into(), Json::Int(i as u64))];
        if let Some(p) = s.parent {
            args.push(("parent".into(), Json::Int(p as u64)));
        }
        if let Some(r) = s.request {
            args.push(("request".into(), Json::Int(r as u64)));
        }
        args.extend(s.counts.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))));
        Json::obj([
            ("name", Json::str(s.name)),
            ("cat", Json::str(s.layer())),
            ("ph", Json::str("X")),
            ("ts", Json::Num(s.start * 1e6)),
            ("dur", Json::Num(s.secs() * 1e6)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(s.request.map_or(0, |r| r as u64 + 1))),
            ("args", Json::Obj(args)),
        ])
    });
    Json::obj([
        ("otherData", header.clone()),
        ("traceEvents", Json::Arr(events.collect())),
    ])
    .render()
}
