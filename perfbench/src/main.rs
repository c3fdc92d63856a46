//! Two-clock benchmark of the nKV smart-storage stack: simulated device
//! time (the paper's clock) and host wall-clock (the simulator's).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan-analytics|get-zipf|mixed-queue --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload: set-up (repeated, median reported),
//! one measured round of fixed size, then `--seconds` of the workload's
//! own operation on the host clock. Every result is checked. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, the round is also run
//! untraced on an identical system and every simulated metric must match
//! it exactly, and the host span log is written to `perfbench/out/`.

mod data;
mod setup;
mod stats;
mod sys;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;
use sys::Tier;
use trace::Tracer;
use workload::{metric, Bench, Check, Metric, RoundOut, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str = "usage: perfbench --workload <scan-analytics|get-zipf|mixed-queue> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = data::graph(args.seed);
    let with_refs = args.workload.with_refs();
    let mut tr = Tracer::new(args.trace);

    // Generator-only pass: the counts the scan checks compare against,
    // and the generator's share of set-up.
    let t = Instant::now();
    let counts = data::generator_pass(cfg, with_refs);
    let gen_s = t.elapsed().as_secs_f64();
    tr.record("ndp-workload.generate_only", (gen_s * 1e9) as u64);

    // Every set-up is timed; the last systems are used. The measured
    // round runs on its own system and the peak RSS is read right after
    // it, so neither depends on how fast the host ran the timed loop,
    // which comes last on a fresh system. The traced run also measures
    // the round untraced on an identical system first.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut check = Check::default();
    let (mut twin, mut round, mut timed): (Option<RoundOut>, _, _) = (None, None, None);
    let (mut peak_rss, mut lost_spans) = (0.0, 0);
    for i in 0..SETUPS {
        let t = Instant::now();
        let g = tr.enter("bench.setup");
        let sys = setup::build(args.workload, cfg, &mut tr);
        tr.exit(g);
        setup_s.push(t.elapsed().as_secs_f64());
        match SETUPS - i {
            1 => {
                let mut b = Bench::new(sys, cfg, &counts, with_refs, &mut tr);
                timed = Some(b.timed(args.workload, args.seconds));
                check.merge(b.check);
            }
            2 => {
                let mut b = Bench::new(sys, cfg, &counts, with_refs, &mut tr);
                if args.trace {
                    b.sys.enable_observability();
                }
                let out = b.round(args.workload, args.trace);
                if let Some(quiet) = &twin {
                    for (a, t) in quiet.sim.iter().zip(&out.sim) {
                        b.check.ensure(a.value.to_bits() == t.value.to_bits(), || {
                            format!(
                                "{} differs with tracing on: {} vs {}",
                                a.name, a.value, t.value
                            )
                        });
                    }
                }
                lost_spans = b.lost_spans;
                check.merge(b.check);
                peak_rss = peak_rss_mb();
                round = Some(out);
            }
            3 if args.trace => {
                let mut quiet = Tracer::new(false);
                let mut b = Bench::new(sys, cfg, &counts, with_refs, &mut quiet);
                twin = Some(b.round(args.workload, false));
                check.merge(b.check);
            }
            _ => {}
        }
    }
    let (ops, timed_s) = timed.expect("a system for the timed loop");
    let round = round.expect("a system for the round");

    let e2e: Vec<Metric> = [
        metric("setup_s", stats::median(&setup_s), "s"),
        metric("host_ops_per_s", ops as f64 / timed_s, "ops/s"),
        metric("peak_rss_mb", peak_rss, "MB"),
    ]
    .into_iter()
    .chain(round.sim.iter().cloned())
    .collect();

    let streamed_gen = if args.workload == Workload::GetZipf { 0.0 } else { gen_s };
    let bulk_ns =
        tr.totals("nkv::db.bulk_load").total_ns + tr.totals("nkv::cluster.bulk_load").total_ns;
    let mut layer = vec![
        metric("ndp-workload.gen_s", gen_s, "s"),
        metric(
            "nkv.bulk_load_s",
            (bulk_ns as f64 / 1e9 / SETUPS as f64 - streamed_gen).max(0.0),
            "s",
        ),
    ];
    layer.extend(round.layer.iter().cloned());
    for tier in Tier::ALL {
        let ms = tier_host_ms(&tr, tier);
        layer.push(Metric {
            name: format!("nkv.engine.scan_host_ms.{}", tier.name()),
            value: ms,
            unit: "ms",
        });
    }
    layer.push(metric("nkv.cluster.get_host_us", tr.mean_ns("nkv::cluster.get") / 1e3, "us"));
    layer.push(metric(
        "nkv.cluster.multi_get_host_us",
        tr.mean_ns("nkv::cluster.multi_get") / 1e3,
        "us",
    ));
    let overhead = twin.as_ref().map_or(0.0, |q| (round.host_s / q.host_s - 1.0) * 100.0);
    layer.push(metric("trace.overhead_pct", overhead, "%"));
    layer.push(metric(
        "error_rate",
        stats::ratio(check.failed as f64, check.attempted as f64),
        "ratio",
    ));

    let correct = check.correct();
    println!(
        "workload {} seed {} ({} s timed, trace {})",
        args.name, args.seed, args.seconds, args.trace
    );
    for m in e2e.iter().chain(if args.trace { layer.iter() } else { [].iter() }) {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for s in &round.samples {
        println!("  samples {s}");
    }
    println!(
        "  checks: {} ops attempted, {} failed, {} other violations; timed phase {ops} ops in {timed_s:.3} s",
        check.attempted,
        check.failed,
        check.violations.len()
    );
    if args.trace {
        println!("  trace: host round {:.3} s traced, overhead {overhead:.2} %, {lost_spans} device spans lost", round.host_s);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.name, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json())) {
            Ok(()) => println!("  trace: spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    let shown = if args.trace { &layer } else { &e2e };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        check.attempted,
        check.failed,
        json_metrics(shown)
    );
    ExitCode::SUCCESS
}

/// Mean host milliseconds of one SCAN call on `tier`, whichever API ran it.
fn tier_host_ms(tr: &Tracer, tier: Tier) -> f64 {
    workload::scan_spans(tier).iter().map(|n| tr.mean_ns(n)).fold(0.0, f64::max) / 1e6
}
