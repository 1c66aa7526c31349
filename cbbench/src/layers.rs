//! Per-layer measurement from outside the program: counter snapshots taken
//! around a measured interval, and probe calls into public layer functions
//! recorded as in-memory spans.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use cloudburst::cluster::CloudburstCluster;
use cloudburst::CloudburstClient;
use cloudburst_anna::metrics as mkeys;
use cloudburst_anna::NodeStats;
use cloudburst_lattice::Key;
use cloudburst_net::reply_channel;
use cloudburst_runtime::RuntimeStats;

use crate::system::NOOP_FUNCTION;

/// CPU time and run-queue wait of one thread, from
/// `/proc/self/task/<tid>/schedstat`.
#[derive(Debug, Clone, Copy, Default)]
struct ThreadTimes {
    cpu_ns: u64,
    wait_ns: u64,
}

/// Which thread group a thread's name puts it in.
fn thread_group(comm: &str) -> &'static str {
    if comm.starts_with("cb-worker") {
        "workers"
    } else if comm.starts_with("net-delay") {
        "fabric"
    } else if comm == crate::CLIENT_THREAD {
        "client"
    } else {
        "other"
    }
}

/// Every live thread of this process: tid → (group, times).
fn thread_times() -> HashMap<u64, (&'static str, ThreadTimes)> {
    let mut out = HashMap::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = task.path();
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        let mut fields = stat
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let times = ThreadTimes {
            cpu_ns: fields.next().unwrap_or(0),
            wait_ns: fields.next().unwrap_or(0),
        };
        out.insert(tid, (thread_group(comm.trim()), times));
    }
    out
}

/// Kernel clock ticks per second in `/proc` CPU times (`USER_HZ`, 100 on
/// every mainstream Linux architecture).
const USER_HZ: u64 = 100;

/// CPU time of the whole process, dead threads included, in ns
/// (`utime + stime` of `/proc/self/stat`).
fn process_cpu_ns() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks * (1_000_000_000 / USER_HZ)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Decoded `__sys/` metric pairs under `key`.
fn sys_metrics(client: &CloudburstClient, key: &Key) -> HashMap<String, f64> {
    match client.get(key.clone()) {
        Ok(Some(bytes)) => mkeys::decode_metrics(&bytes).into_iter().collect(),
        _ => HashMap::new(),
    }
}

fn anna_stats(client: &CloudburstClient) -> Vec<NodeStats> {
    client.anna().cluster_stats_lenient()
}

/// Counters read at one instant.
pub struct Snapshot {
    at: Instant,
    runtime: RuntimeStats,
    process_cpu_ns: u64,
    threads: HashMap<u64, (&'static str, ThreadTimes)>,
    gets: u64,
    puts: u64,
    sstables: usize,
    executor_completed: f64,
    executor_utilization: Vec<f64>,
    plan_hits: f64,
    plan_misses: f64,
}

impl Snapshot {
    /// Read every counter. Storage statistics are read first when
    /// `stats_first`, last otherwise, so the `__sys/` reads this snapshot
    /// itself issues fall outside the interval two snapshots bracket.
    pub fn take(cluster: &CloudburstCluster, client: &CloudburstClient, stats_first: bool) -> Self {
        let mut stats = if stats_first {
            anna_stats(client)
        } else {
            Vec::new()
        };
        let mut executor_completed = 0.0;
        let mut executor_utilization = Vec::new();
        for (id, _) in cluster.topology().executors() {
            let m = sys_metrics(client, &mkeys::executor_metrics_key(id));
            executor_completed += m.get("completed").copied().unwrap_or(0.0);
            executor_utilization.push(m.get("utilization").copied().unwrap_or(0.0));
        }
        let sched = sys_metrics(client, &mkeys::scheduler_stats_key(0));
        if !stats_first {
            stats = anna_stats(client);
        }
        Self {
            at: Instant::now(),
            runtime: cluster.runtime_stats(),
            process_cpu_ns: process_cpu_ns(),
            threads: thread_times(),
            gets: stats.iter().map(|s| s.gets_served).sum(),
            puts: stats.iter().map(|s| s.puts_served).sum(),
            sstables: stats.iter().map(|s| s.sstables).sum(),
            executor_completed,
            executor_utilization,
            plan_hits: sched.get("plan_hits").copied().unwrap_or(0.0),
            plan_misses: sched.get("plan_misses").copied().unwrap_or(0.0),
        }
    }

    /// Storage request counters only (the idle-window baseline).
    pub fn storage(client: &CloudburstClient) -> (Instant, u64, u64) {
        let stats = anna_stats(client);
        (
            Instant::now(),
            stats.iter().map(|s| s.gets_served).sum(),
            stats.iter().map(|s| s.puts_served).sum(),
        )
    }
}

/// Background storage traffic while no request runs, per second.
#[derive(Debug, Clone, Copy)]
pub struct IdleRate {
    gets_per_s: f64,
    puts_per_s: f64,
}

impl IdleRate {
    /// Measure over `window` of idleness.
    pub fn measure(client: &CloudburstClient, window: Duration) -> Self {
        let (t0, g0, p0) = Snapshot::storage(client);
        std::thread::sleep(window);
        let (t1, g1, p1) = Snapshot::storage(client);
        let secs = (t1 - t0).as_secs_f64();
        Self {
            gets_per_s: g1.saturating_sub(g0) as f64 / secs,
            puts_per_s: p1.saturating_sub(p0) as f64 / secs,
        }
    }
}

/// Per-layer metrics derived from two snapshots bracketing `ops` requests.
pub fn counter_metrics(
    a: &Snapshot,
    b: &Snapshot,
    ops: u64,
    idle: IdleRate,
) -> BTreeMap<&'static str, (f64, &'static str)> {
    let ops_f = ops.max(1) as f64;
    let secs = (b.at - a.at).as_secs_f64();
    let mut cpu: HashMap<&'static str, u64> = HashMap::new();
    let mut wait = 0u64;
    for (tid, (group, t1)) in &b.threads {
        let t0 = a.threads.get(tid).map(|(_, t)| *t).unwrap_or_default();
        *cpu.entry(group).or_default() += t1.cpu_ns.saturating_sub(t0.cpu_ns);
        wait += t1.wait_ns.saturating_sub(t0.wait_ns);
    }
    // Threads that exited inside the interval are spare workers retiring;
    // their CPU shows only in the process total, so it goes to the workers.
    let total = b.process_cpu_ns.saturating_sub(a.process_cpu_ns);
    let others: u64 = ["fabric", "client", "other"]
        .iter()
        .filter_map(|g| cpu.get(g))
        .sum();
    cpu.insert("workers", total.saturating_sub(others));
    cpu.insert("total", total);
    let us_per_op = |group: &str| cpu.get(group).copied().unwrap_or(0) as f64 / 1e3 / ops_f;
    let plan_lookups = (b.plan_hits + b.plan_misses) - (a.plan_hits + a.plan_misses);
    let utilization = &b.executor_utilization;
    let mut m = BTreeMap::new();
    m.insert(
        "runtime.polls_per_op",
        ((b.runtime.polls - a.runtime.polls) as f64 / ops_f, "count"),
    );
    m.insert(
        "runtime.steals_per_op",
        (
            (b.runtime.total_steals() - a.runtime.total_steals()) as f64 / ops_f,
            "count",
        ),
    );
    m.insert(
        "runtime.timer_fires_per_s",
        (
            (b.runtime.timer_fires - a.runtime.timer_fires) as f64 / secs,
            "1/s",
        ),
    );
    m.insert(
        "runtime.max_mailbox_depth",
        (b.runtime.max_mailbox_depth as f64, "count"),
    );
    m.insert(
        "runtime.spares_spawned",
        (
            (b.runtime.spares_spawned - a.runtime.spares_spawned) as f64,
            "count",
        ),
    );
    m.insert("cpu.workers_us_per_op", (us_per_op("workers"), "us"));
    m.insert("cpu.fabric_us_per_op", (us_per_op("fabric"), "us"));
    m.insert("cpu.client_us_per_op", (us_per_op("client"), "us"));
    m.insert("cpu.total_us_per_op", (us_per_op("total"), "us"));
    m.insert(
        "host.runq_wait_us_per_op",
        (wait as f64 / 1e3 / ops_f, "us"),
    );
    m.insert(
        "scheduler.plan_hit_ratio",
        (
            if plan_lookups > 0.0 {
                (b.plan_hits - a.plan_hits) / plan_lookups
            } else {
                0.0
            },
            "ratio",
        ),
    );
    m.insert(
        "executor.utilization",
        (
            utilization.iter().sum::<f64>() / utilization.len().max(1) as f64,
            "ratio",
        ),
    );
    m.insert(
        "executor.fn_per_op",
        (
            (b.executor_completed - a.executor_completed) / ops_f,
            "count",
        ),
    );
    m.insert(
        "anna.gets_per_op",
        (
            ((b.gets - a.gets) as f64 - idle.gets_per_s * secs) / ops_f,
            "count",
        ),
    );
    m.insert(
        "anna.puts_per_op",
        (
            ((b.puts - a.puts) as f64 - idle.puts_per_s * secs) / ops_f,
            "count",
        ),
    );
    m.insert("lsm.sstables", (b.sstables as f64, "count"));
    m
}

/// Where each function is pinned: function → executor → VM, from the
/// executors' `__sys/` function lists.
pub fn placement(
    cluster: &CloudburstCluster,
    client: &CloudburstClient,
) -> BTreeMap<String, Vec<(u64, u64)>> {
    let mut pins: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    for (id, info) in cluster.topology().executors() {
        let Ok(Some(list)) = client.get(mkeys::executor_functions_key(id)) else {
            continue;
        };
        for name in String::from_utf8_lossy(&list)
            .lines()
            .filter(|l| !l.is_empty())
        {
            pins.entry(name.to_string())
                .or_default()
                .push((id, info.vm));
        }
    }
    pins
}

/// Distinct VMs `function` is pinned on.
pub fn pinned_vms(pins: &BTreeMap<String, Vec<(u64, u64)>>, function: &str) -> usize {
    pins.get(function).map_or(0, |p| {
        p.iter().map(|&(_, vm)| vm).collect::<BTreeSet<_>>().len()
    })
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Spans are kept until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

/// Hops timed per probe round: enough for a p99 with ten samples beyond it
/// over a few seconds of rounds.
const HOPS_PER_ROUND: usize = 10;

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            next_id: 1,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            id: self.next_id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.next_id += 1;
    }

    fn timed<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, parent, start, Instant::now());
        r
    }

    /// One probe round: reply-channel hops on the cluster's fabric, a
    /// storage get and put from the benchmark's own KVS client, and a
    /// no-op function call through the scheduler.
    pub fn probe_round(&mut self, cluster: &CloudburstCluster, client: &CloudburstClient) {
        let round_start = Instant::now();
        let round = self.next_id;
        self.next_id += 1;
        let net = cluster.network();
        for _ in 0..HOPS_PER_ROUND {
            self.timed("net.hop", round, || {
                let (handle, waiter) = reply_channel::<()>(net);
                handle.reply(());
                waiter.wait().expect("a reply leg is always delivered");
            });
        }
        let key = Key::new("bench/probe");
        let anna = client.anna();
        self.timed("anna.put", round, || {
            let _ = anna.put_lww(&key, bytes::Bytes::from_static(b"probe"));
        });
        self.timed("anna.get", round, || {
            let _ = anna.get(&key);
        });
        self.timed("scheduler.dispatch", round, || {
            let _ = client.call_function(NOOP_FUNCTION, Vec::new());
        });
        self.spans.push(Span {
            id: round,
            parent: 0,
            name: "probe.round",
            start_ns: self.ns(round_start),
            end_ns: self.ns(Instant::now()),
        });
    }

    /// Durations (µs, sorted) of every span named `name`.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Per-layer metrics from the probe spans.
    pub fn probe_metrics(&self) -> BTreeMap<&'static str, (f64, &'static str)> {
        let hops = self.durations_us("net.hop");
        let mut m = BTreeMap::new();
        m.insert(
            "net.hop_p50_us",
            (crate::interval::percentile(&hops, 0.50), "us"),
        );
        m.insert(
            "net.hop_p99_us",
            (crate::interval::percentile(&hops, 0.99), "us"),
        );
        m.insert(
            "anna.get_p50_us",
            (
                crate::interval::percentile(&self.durations_us("anna.get"), 0.50),
                "us",
            ),
        );
        m.insert(
            "anna.put_p50_us",
            (
                crate::interval::percentile(&self.durations_us("anna.put"), 0.50),
                "us",
            ),
        );
        m.insert(
            "scheduler.dispatch_p50_us",
            (
                crate::interval::percentile(&self.durations_us("scheduler.dispatch"), 0.50),
                "us",
            ),
        );
        m
    }

    /// Write every span as tab-separated lines: id, parent, name, start
    /// and end in ns since the recorder was made.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
