//! `rndi-perfbench` — the repo benchmark.
//!
//! One invocation runs one workload and prints, as its last line, one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the six end-to-end figures; with
//! `--trace 1` they are the per-layer figures. See `README.md` beside this
//! crate for what each one means and which should move which.

mod alloc;
mod gen;
mod measure;
mod probe;
mod report;
mod trace;
mod workloads;
mod world;

use std::path::{Path, PathBuf};
use std::time::Instant;

use measure::{HostProbe, Kind, Recorder};
use report::Metrics;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Turns the untraced and the traced workload each get in a traced run.
/// Together they last a third of `--seconds`: one slice a turn at 30 s.
const TRACE_ROUNDS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    /// Append the result, tagged with the workload, to this file.
    record: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: rndi-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--out-dir <dir>] [--record <file>]\n       \
         rndi-perfbench --agree <set A json...> -- <set B json...>\n       \
         rndi-perfbench --ledger <out.json> --sha <git sha> <run json...>",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        record: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()),
            "--record" => args.record = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// `--trace 0`: set up, run one window, report the end-to-end metrics.
fn run_untraced(args: &Args, scratch: &Path) -> rndi_core::error::Result<report::Outcome> {
    let start = Instant::now();
    let mut workload = workloads::build(&args.workload, args.seed, scratch, false)?;
    let setup_s = start.elapsed().as_secs_f64();
    let mut rec = Recorder::new();
    workloads::drive(workload.as_mut(), &mut rec, args.seconds);
    let peak_rss_mb = measure::peak_rss_mb();
    // The window's own figures are per-layer metrics (the traced run
    // reports them as `client.*`); here they are a note for the reader.
    eprintln!(
        "# {}: {} slices (spread {:.3}): {:.0} op/s, \
         lookup p50 {:.2} us, rebind p50 {:.2} us, {:.2} cpu-us/op",
        args.workload,
        rec.slices.len(),
        rec.slice_spread(),
        rec.ops_per_s(),
        rec.p50_us(Kind::Read),
        rec.p50_us(Kind::Write),
        rec.cpu_us_per_op(),
    );
    let correct = workload.verify() && rec.failed == 0;
    drop(workload);

    let mut metrics = Metrics::new();
    metrics.put("setup_s", setup_s, "s");
    metrics.put("peak_rss_mb", peak_rss_mb, "MiB");
    Ok(report::Outcome {
        correct,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
    })
}

/// `--trace 1`: untraced and traced windows in turns, then the layer
/// probes.
fn run_traced(args: &Args, scratch: &Path) -> rndi_core::error::Result<report::Outcome> {
    let host = HostProbe::start();

    // The same workload twice: as it is, and with span wrappers around its
    // pipelines and providers. They take turns, so a disturbance of the
    // host falls on both.
    let mut plain = workloads::build(&args.workload, args.seed, scratch, false)?;
    let mut wrapped = workloads::build(&args.workload, args.seed, scratch, true)?;
    let (mut untraced, mut traced) = (Recorder::new(), Recorder::new());
    let turn = args.seconds / (6 * TRACE_ROUNDS) as f64;
    for _ in 0..TRACE_ROUNDS {
        workloads::drive(plain.as_mut(), &mut untraced, turn);
        trace::resume();
        workloads::drive(wrapped.as_mut(), &mut traced, turn);
        trace::pause();
    }
    let summary = trace::finish(&args.out_dir.join(format!("{}.trace.jsonl", args.workload)))
        .map_err(|e| rndi_core::error::NamingError::service(format!("trace file: {e}")))?;
    let mut correct = plain.verify() && wrapped.verify();
    drop((plain, wrapped));

    let mut metrics = Metrics::new();
    let rec = &untraced;
    metrics.put("client.ops_per_s", rec.ops_per_s(), "1/s");
    metrics.put("client.read_p50_us", rec.p50_us(Kind::Read), "us");
    metrics.put("client.write_p50_us", rec.p50_us(Kind::Write), "us");
    metrics.put("client.cpu_us_per_op", rec.cpu_us_per_op(), "us");
    metrics.put("client.read_p99_us", rec.p99_us(Kind::Read), "us");
    metrics.put("client.write_p99_us", rec.p99_us(Kind::Write), "us");
    metrics.put("client.slice_spread", rec.slice_spread(), "ratio");
    metrics.put(
        "trace.overhead_share",
        1.0 - traced.ops_per_s() / rec.ops_per_s(),
        "ratio",
    );
    let read_p50 = rec.p50_us(Kind::Read);
    metrics.put(
        "trace.sum_residual_share",
        (summary.read_self_sum_us() - read_p50).abs() / read_p50,
        "ratio",
    );
    metrics.put("trace.spans_per_op", summary.spans_per_op(), "count");
    eprintln!(
        "# {}: lookup p50 {:.2} us untraced; traced self times: {:?}; \
         p99 samples: {} reads, {} writes",
        args.workload,
        read_p50,
        summary.read_self_us,
        rec.samples(Kind::Read),
        rec.samples(Kind::Write),
    );

    let lockstep_p50 = (args.workload == "wire_lockstep")
        .then(|| (rec.p50_us(Kind::Read), rec.p50_us(Kind::Write)));
    probe::run_all(scratch, lockstep_p50, &mut metrics)?;

    let host = host.finish();
    metrics.put("host.calib_spread", host.calib_spread, "ratio");
    metrics.put("host.steal_share", host.steal_share, "ratio");
    metrics.put("host.invol_ctxsw_per_s", host.invol_ctxsw_per_s, "1/s");
    if host.noisy() {
        eprintln!("# noisy_host: this run shared its cores; treat its figures with care");
    }
    correct &= untraced.failed == 0 && traced.failed == 0;
    let metrics = metrics
        .in_order_of(&probe::PER_LAYER)
        .map_err(rndi_core::error::NamingError::service)?;
    Ok(report::Outcome {
        correct,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--agree") => std::process::exit(report::agree(&argv[1..])),
        Some("--ledger") => std::process::exit(report::ledger(&argv[1..])),
        _ => {}
    }
    let args = parse_args(&argv);
    let scratch = args.out_dir.join("tmp");
    let result = if args.trace {
        run_traced(&args, &scratch)
    } else {
        run_untraced(&args, &scratch)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("rndi-perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if let Some(name) = outcome.metrics.unmeasured() {
        eprintln!(
            "rndi-perfbench: {}: {name} has no samples behind it; no result",
            args.workload
        );
        std::process::exit(1);
    }
    for (name, value, unit) in outcome.metrics.iter() {
        println!("{name} {value} {unit}");
    }
    println!(
        "attempted {} failed {} correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    if let Some(path) = &args.record {
        if let Err(e) = report::append_record(path, &args.workload, args.seed, args.trace, &outcome)
        {
            eprintln!("rndi-perfbench: {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("{}", outcome.to_json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
