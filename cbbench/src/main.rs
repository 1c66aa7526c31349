//! Closed-loop benchmark of the Cloudburst reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path cbbench/Cargo.toml -- \
//!     --workload <compose|locality|retwis|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread issues one request at a time and checks every answer.
//! `--trace 0` sets up the workload's cluster several times (reporting the
//! median set-up time), then measures the end-to-end metrics. `--trace 1`
//! sets up once, measures per-layer counters over an untraced half, then
//! alternates untraced and traced chunks: probe spans come from the traced
//! chunks, and the latency difference between the two kinds of chunk is
//! the tracing overhead. The last line of standard output is one JSON
//! object with the result; `cbbench/NOTES.md` describes every metric.

mod interval;
mod layers;
mod system;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use interval::{median, percentile, CpuTicks, Interval, Window, RSS_MARK, WINDOW};
use layers::{IdleRate, Snapshot, Tracer};
use system::{Inputs, System};
use workload::{Generator, Request, Workload};

/// Name of the thread that issues requests; its CPU time is reported as
/// the client's.
pub const CLIENT_THREAD: &str = "bench-client";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A measured interval runs until it has at least this many samples, so
/// the calm pool (`interval::CALM_REQUESTS`) can fill.
const MIN_SAMPLES: usize = 1_000;

/// Give up extending an interval for samples after this much extra time.
const SAMPLE_GRACE: Duration = Duration::from_secs(60);

/// Idle window that measures background storage traffic.
const IDLE_WINDOW: Duration = Duration::from_secs(1);

/// Length of each traced or untraced chunk in the alternating half of a
/// traced run.
const TRACE_CHUNK: Duration = Duration::from_millis(500);

/// Probe rounds in a traced interval start this far apart.
const PROBE_INTERVAL: Duration = Duration::from_millis(50);

/// How long posted tweets get to become readable after the last request.
const POST_PATIENCE: Duration = Duration::from_secs(5);

/// Environment switches that would swap the measured fabric or worker pool.
const FORBIDDEN_ENV: [&str; 2] = ["CB_NET_DELIVERY", "CB_RUNTIME"];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn span_name(request: &Request) -> &'static str {
    match request {
        Request::Compose { .. } => "compose.call_dag",
        Request::Locality { .. } => "locality.call_dag",
        Request::Timeline { .. } => "retwis.timeline",
        Request::Post { .. } => "retwis.post",
    }
}

/// Issue requests one at a time for `length` (and until `min_samples`),
/// checking each answer. With a tracer, every request becomes a span and a
/// probe round runs every `PROBE_INTERVAL`.
fn measure(
    system: &mut System,
    requests: &mut Generator,
    length: Duration,
    min_samples: usize,
    mut tracer: Option<&mut Tracer>,
) -> Interval {
    let start = Instant::now();
    let mut run = Interval {
        cpu: (CpuTicks::now(), CpuTicks::default()),
        ..Interval::default()
    };
    let (mut window, mut window_start) = (Window::default(), start);
    let mut next_probe = start;
    loop {
        let now = Instant::now();
        let elapsed = now - start;
        let samples = run.attempted() as usize + window.latencies_ms.len();
        if elapsed >= length && (samples >= min_samples || elapsed >= length + SAMPLE_GRACE) {
            break;
        }
        if window.latencies_ms.len() == WINDOW {
            window.secs = (now - window_start).as_secs_f64();
            run.close_window(std::mem::take(&mut window));
            window_start = now;
            if samples == RSS_MARK {
                run.peak_rss_mb = layers::peak_rss_mb();
            }
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            if now >= next_probe {
                tracer.probe_round(system.cluster(), system.client());
                next_probe = now + PROBE_INTERVAL;
            }
        }
        let request = requests.next().expect("request streams are endless");
        let t0 = Instant::now();
        let outcome = system.call(&request);
        let t1 = Instant::now();
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record(span_name(&request), 0, t0, t1);
        }
        window.latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);
        if let Err(e) = outcome {
            run.errors.push(e);
        }
    }
    window.secs = window_start.elapsed().as_secs_f64();
    run.close_window(window);
    run.wall = start.elapsed();
    run.cpu.1 = CpuTicks::now();
    if run.peak_rss_mb == 0.0 {
        run.peak_rss_mb = layers::peak_rss_mb();
    }
    run
}

/// The result of one workload.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
    lines: Vec<String>,
}

fn mode_line(system: &System) -> String {
    let net = system.cluster().network();
    let rt = system.cluster().runtime_stats();
    format!(
        "mode: time_scale={} delivery_shards={} deterministic={} runtime={} workers={} nproc={}",
        net.time_scale().factor(),
        net.delivery_shards(),
        net.is_deterministic(),
        rt.mode,
        rt.workers,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
}

fn placement_line(system: &System) -> (String, usize) {
    let pins = layers::placement(system.cluster(), system.client());
    let shown: Vec<String> = pins
        .iter()
        .filter(|(f, _)| !f.starts_with("bench_"))
        .map(|(f, at)| {
            let at: Vec<String> = at.iter().map(|(e, vm)| format!("e{e}@vm{vm}")).collect();
            format!("{f}->{}", at.join(","))
        })
        .collect();
    (
        format!("placement: {}", shown.join(" ")),
        layers::pinned_vms(&pins, system.primary_function()),
    )
}

/// Check posted tweets are readable; each unreadable one is a failure.
fn final_check(system: &System) -> Vec<String> {
    system
        .unreadable_posts(POST_PATIENCE)
        .into_iter()
        .map(|id| format!("posted tweet {id} unreadable at the end"))
        .collect()
}

fn error_lines(errors: &[String]) -> impl Iterator<Item = String> + '_ {
    errors.iter().take(5).map(|e| format!("error: {e}"))
}

fn run_untraced(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let inputs = Arc::new(Inputs::new(workload));
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Shut the previous cluster down before timing the next set-up.
        drop(last.take());
        let mut requests = Generator::new(workload, seed);
        let t = Instant::now();
        let system = System::launch(workload, seed, Arc::clone(&inputs), &mut requests)?;
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((system, requests));
    }
    let (mut system, mut requests) = last.expect("at least one set-up");
    let mut run = measure(
        &mut system,
        &mut requests,
        Duration::from_secs_f64(seconds),
        MIN_SAMPLES,
        None,
    );
    let unreadable = final_check(&system);
    let failed = run.failed() + unreadable.len() as u64;
    run.errors.extend(unreadable);
    let mut metrics = BTreeMap::new();
    metrics.insert("p50_ms".to_string(), (run.p50(), "ms"));
    metrics.insert("rss_mb".to_string(), (run.peak_rss_mb, "MB"));
    metrics.insert("setup_s".to_string(), (median(&setup_s), "s"));
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    let calm = run.calm();
    let mut lines = vec![
        mode_line(&system),
        format!(
            "samples: {} over {:.2} s, steal {:.1} %; p50, p99 {:.4} ms and throughput {:.1}/s \
             from the calmest {} requests ({} of {} windows); error_rate: {} ({failed} of {}); \
             setups (s): {}",
            run.attempted(),
            run.wall.as_secs_f64(),
            run.steal_share() * 100.0,
            run.p99(),
            run.throughput(),
            calm.iter().map(|w| w.latencies_ms.len()).sum::<usize>(),
            calm.len(),
            run.windows.len(),
            failed as f64 / run.attempted().max(1) as f64,
            run.attempted(),
            setups.join(" ")
        ),
        placement_line(&system).0,
    ];
    lines.extend(error_lines(&run.errors));
    Ok(Report {
        attempted: run.attempted(),
        failed,
        metrics,
        lines,
    })
}

fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let inputs = Arc::new(Inputs::new(workload));
    let mut requests = Generator::new(workload, seed);
    let mut system = System::launch(workload, seed, inputs, &mut requests)?;
    let half = Duration::from_secs_f64(seconds / 2.0);

    // First half: untraced, bracketed by counter snapshots, so probes
    // never touch the counters.
    let idle = IdleRate::measure(system.client(), IDLE_WINDOW);
    let a = Snapshot::take(system.cluster(), system.client(), false);
    let counted = measure(&mut system, &mut requests, half, MIN_SAMPLES, None);
    let b = Snapshot::take(system.cluster(), system.client(), true);

    // Second half: traced and untraced chunks alternate, so drift after
    // set-up does not pass for tracing overhead.
    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Interval::default(), Interval::default());
    let second_half = Instant::now();
    while second_half.elapsed() < half {
        plain.append(measure(&mut system, &mut requests, TRACE_CHUNK, 0, None));
        let chunk = measure(
            &mut system,
            &mut requests,
            TRACE_CHUNK,
            0,
            Some(&mut tracer),
        );
        traced.append(chunk);
    }
    let (placement, pinned_vms) = placement_line(&system);
    let errors: Vec<String> = [&counted, &plain, &traced]
        .iter()
        .flat_map(|run| run.errors.iter().cloned())
        .chain(final_check(&system))
        .collect();

    let mut metrics: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let layer = layers::counter_metrics(&a, &b, counted.attempted(), idle)
        .into_iter()
        .chain(tracer.probe_metrics());
    metrics.extend(layer.map(|(k, v)| (k.to_string(), v)));
    metrics.insert("scheduler.pinned_vms".into(), (pinned_vms as f64, "count"));
    metrics.insert("e2e.samples".into(), (counted.attempted() as f64, "count"));
    metrics.insert("e2e.p99_ms".into(), (counted.p99(), "ms"));
    metrics.insert("e2e.throughput_ops".into(), (counted.throughput(), "1/s"));
    let overhead = |t: f64, u: f64| if u > 0.0 { (t / u - 1.0) * 100.0 } else { 0.0 };
    let (plain, traced) = (plain.sorted_latencies(), traced.sorted_latencies());
    for (name, q) in [("p50", 0.50), ("p99", 0.99)] {
        let (u, t) = (percentile(&plain, q), percentile(&traced, q));
        metrics.insert(format!("trace.untraced_{name}_ms"), (u, "ms"));
        metrics.insert(format!("trace.traced_{name}_ms"), (t, "ms"));
        metrics.insert(format!("trace.{name}_overhead_pct"), (overhead(t, u), "%"));
    }
    metrics.insert(
        "host.steal_pct".into(),
        (counted.steal_share() * 100.0, "%"),
    );

    let mut lines = vec![
        mode_line(&system),
        format!(
            "samples: counted {} over {:.2} s; alternating untraced {} / traced {} over {:.2} s",
            counted.attempted(),
            counted.wall.as_secs_f64(),
            plain.len(),
            traced.len(),
            second_half.elapsed().as_secs_f64()
        ),
        placement,
    ];
    // Spans go next to the binary, inside the build directory.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = exe.with_file_name(format!("spans-{}-{seed}.tsv", workload.name()));
    lines.push(match tracer.write(&path) {
        Ok(()) => format!("spans: {}", path.display()),
        Err(e) => format!("spans: not written ({e})"),
    });
    lines.extend(error_lines(&errors));
    Ok(Report {
        attempted: counted.attempted() + (plain.len() + traced.len()) as u64,
        failed: errors.len() as u64,
        metrics,
        lines,
    })
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn result_json(attempted: u64, failed: u64, metrics: &BTreeMap<String, (f64, &str)>) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        fields.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let mut attempted = 0;
    let mut failed = 0;
    let mut all = BTreeMap::new();
    for &workload in &args.workloads {
        let report = if args.trace {
            run_traced(workload, args.seed, args.seconds)?
        } else {
            run_untraced(workload, args.seed, args.seconds)?
        };
        println!(
            "== {} (seed {}, {} s, trace {})",
            workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for line in &report.lines {
            println!("{line}");
        }
        for (name, (value, unit)) in &report.metrics {
            println!("{name}: {value:.4} {unit}");
        }
        attempted += report.attempted;
        failed += report.failed;
        let prefix = if args.workloads.len() > 1 {
            format!("{}.", workload.name())
        } else {
            String::new()
        };
        all.extend(
            report
                .metrics
                .into_iter()
                .map(|(name, v)| (format!("{prefix}{name}"), v)),
        );
    }
    Ok(result_json(attempted, failed, &all))
}

fn main() -> ExitCode {
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("cbbench: {var} is set; it would swap the measured fabric or worker pool");
            return ExitCode::from(2);
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "cbbench: {e}\nusage: cbbench --workload <compose|locality|retwis|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = std::thread::Builder::new()
        .name(CLIENT_THREAD.into())
        .spawn(move || run(&args))
        .expect("spawn the client thread")
        .join();
    match outcome {
        Ok(Ok(json)) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Ok(Err(e)) => {
            eprintln!("cbbench: {e}");
            ExitCode::FAILURE
        }
        Err(_) => {
            eprintln!("cbbench: the client thread panicked");
            ExitCode::FAILURE
        }
    }
}
