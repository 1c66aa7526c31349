//! The system under test for each workload: cluster configuration,
//! function registration, data seeding, and one request with its answer
//! checked.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cloudburst::cache::CacheConfig;
use cloudburst::cluster::{CloudburstCluster, CloudburstConfig};
use cloudburst::codec;
use cloudburst::dag::DagSpec;
use cloudburst::types::{Arg, ConsistencyLevel, InvocationResult};
use cloudburst::CloudburstClient;
use cloudburst_anna::{AnnaConfig, Durability};
use cloudburst_apps::retwis::{Retwis, RetwisConfig};
use cloudburst_lattice::{Capsule, Key};
use cloudburst_net::{LatencyModel, NetworkConfig, TimeScale};

use crate::workload::{self, Request, Workload};

/// Requests issued after seeding and before measuring, so lazy set-up
/// (function fetch, pins, plan cache, cache fill) is paid in `setup_s`.
fn warmup_requests(workload: Workload) -> usize {
    match workload {
        Workload::Compose => 1_000,
        Workload::Locality => 1_000,
        Workload::Retwis => 300,
    }
}

/// Per-call client timeout: a hung call counts as failed well inside the
/// benchmark's own time limit.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Objects per `multi_put` while seeding the `locality` data set.
const SEED_BATCH: usize = 250;

/// The function every workload registers for the scheduler dispatch probe.
pub const NOOP_FUNCTION: &str = "bench_noop";

/// The paper's intra-AZ hop: log-normal, 0.2 ms median, 1 ms p99.
const INTRA_AZ: LatencyModel = LatencyModel::LogNormal {
    median_ms: 0.2,
    p99_ms: 1.0,
};

/// Cluster configuration of each workload. Every workload runs at real
/// time, so a modelled millisecond is a wall millisecond.
fn config(workload: Workload, seed: u64) -> CloudburstConfig {
    let net = NetworkConfig {
        time_scale: TimeScale::REAL_TIME,
        default_latency: match workload {
            Workload::Compose => LatencyModel::Zero,
            Workload::Locality | Workload::Retwis => INTRA_AZ,
        },
        seed,
        ..NetworkConfig::default()
    };
    let retwis = workload == Workload::Retwis;
    CloudburstConfig {
        net,
        anna: AnnaConfig {
            nodes: 3,
            replication: if retwis { 2 } else { 1 },
            durability: if retwis {
                Durability::InMemory
            } else {
                Durability::Off
            },
            ..AnnaConfig::default()
        },
        // One VM for Retwis: with two, where `retwis_timeline` gets pinned
        // during warm-up decides which of two latency modes a run lands in.
        vms: if retwis { 1 } else { 2 },
        executors_per_vm: 3,
        schedulers: 1,
        level: if retwis {
            ConsistencyLevel::DistributedSessionCausal
        } else {
            ConsistencyLevel::Lww
        },
        cache: CacheConfig {
            max_entries: if workload == Workload::Locality {
                1_000
            } else {
                CacheConfig::default().max_entries
            },
            ..CacheConfig::default()
        },
        ..CloudburstConfig::default()
    }
}

/// Inputs shared by every cluster a run launches: the `locality` objects
/// and their hashes.
pub struct Inputs {
    objects: Vec<Bytes>,
    hashes: Vec<u64>,
}

impl Inputs {
    /// Build the inputs `workload` needs.
    pub fn new(workload: Workload) -> Self {
        if workload != Workload::Locality {
            return Self {
                objects: Vec::new(),
                hashes: Vec::new(),
            };
        }
        let objects: Vec<Bytes> = (0..workload::LOCALITY_OBJECTS as u32)
            .map(workload::object_bytes)
            .collect();
        let hashes = objects.iter().map(|o| workload::object_hash(o)).collect();
        Self { objects, hashes }
    }
}

/// A launched, seeded, warmed-up cluster for one workload.
pub struct System {
    workload: Workload,
    cluster: CloudburstCluster,
    client: CloudburstClient,
    inputs: Arc<Inputs>,
    posted: Vec<String>,
}

impl System {
    /// Launch, register, seed and warm up; `requests` continues after the
    /// warm-up draws.
    pub fn launch(
        workload: Workload,
        seed: u64,
        inputs: Arc<Inputs>,
        requests: &mut impl Iterator<Item = Request>,
    ) -> Result<Self, String> {
        let cluster = CloudburstCluster::launch(config(workload, seed));
        let client = cluster.client().with_timeout(CALL_TIMEOUT);
        let err = |e: cloudburst::ClientError| e.to_string();
        client
            .register_function(NOOP_FUNCTION, |_rt, _args| Ok(Bytes::new()))
            .map_err(err)?;
        match workload {
            Workload::Compose => {
                client
                    .register_function("increment", |_rt, args| {
                        let x = codec::decode_i64(&args[0]).ok_or("bad x")?;
                        Ok(codec::encode_i64(x + 1))
                    })
                    .map_err(err)?;
                client
                    .register_function("square", |_rt, args| {
                        let x = codec::decode_i64(&args[0]).ok_or("bad x")?;
                        Ok(codec::encode_i64(x * x))
                    })
                    .map_err(err)?;
                client
                    .register_dag(DagSpec::linear("compose", &["increment", "square"]))
                    .map_err(err)?;
            }
            Workload::Locality => {
                client
                    .register_function("checksum", |_rt, args| {
                        let hash = workload::combine(args.iter().map(|a| workload::object_hash(a)));
                        Ok(codec::encode_i64(hash as i64))
                    })
                    .map_err(err)?;
                client
                    .register_dag(DagSpec::linear("locality", &["checksum"]))
                    .map_err(err)?;
                let anna = client.anna();
                for (start, chunk) in (0u32..)
                    .step_by(SEED_BATCH)
                    .zip(inputs.objects.chunks(SEED_BATCH))
                {
                    let entries = chunk
                        .iter()
                        .zip(start..)
                        .map(|(object, k)| {
                            let key = Key::new(workload::object_key(k));
                            (
                                key,
                                Capsule::wrap_lww(anna.next_timestamp(), object.clone()),
                            )
                        })
                        .collect();
                    anna.multi_put(entries).map_err(|e| e.to_string())?;
                }
            }
            Workload::Retwis => {
                Retwis::register(&client).map_err(err)?;
                Retwis::new(retwis_config(seed))
                    .seed(&client)
                    .map_err(err)?;
            }
        }
        let mut system = Self {
            workload,
            cluster,
            client,
            inputs,
            posted: Vec::new(),
        };
        if workload == Workload::Retwis {
            // Every user's timeline once: the data a timeline reads is in
            // the cache before timing starts, not only the popular users'.
            for user in 0..workload::RETWIS_USERS {
                system.call(&Request::Timeline { user })?;
            }
        }
        for request in requests.take(warmup_requests(workload)) {
            system.call(&request)?;
        }
        // Pin the probe function too, so a traced interval's first dispatch
        // probe does not pay the function fetch.
        if let InvocationResult::Err(e) = system
            .client
            .call_function(NOOP_FUNCTION, Vec::new())
            .map_err(err)?
        {
            return Err(e);
        }
        Ok(system)
    }

    /// The running cluster.
    pub fn cluster(&self) -> &CloudburstCluster {
        &self.cluster
    }

    /// The benchmark's client.
    pub fn client(&self) -> &CloudburstClient {
        &self.client
    }

    /// The function whose pins `scheduler.pinned_vms` counts.
    pub fn primary_function(&self) -> &'static str {
        match self.workload {
            Workload::Compose => "increment",
            Workload::Locality => "checksum",
            Workload::Retwis => "retwis_timeline",
        }
    }

    /// Issue one request and check its answer. `Err` is a failed call or
    /// a wrong answer.
    pub fn call(&mut self, request: &Request) -> Result<(), String> {
        match request {
            Request::Compose { x } => {
                let args = HashMap::from([(0, vec![Arg::value(codec::encode_i64(*x))])]);
                let got = decode(self.client.call_dag("compose", args))?;
                let want = (x + 1) * (x + 1);
                (got == want)
                    .then_some(())
                    .ok_or_else(|| format!("compose({x}) = {got}, want {want}"))
            }
            Request::Locality { keys } => {
                let refs = keys
                    .iter()
                    .map(|&k| Arg::reference(workload::object_key(k)))
                    .collect();
                let got = decode(self.client.call_dag("locality", HashMap::from([(0, refs)])))?;
                let want =
                    workload::combine(keys.iter().map(|&k| self.inputs.hashes[k as usize])) as i64;
                (got == want)
                    .then_some(())
                    .ok_or_else(|| format!("checksum of {keys:?} = {got:x}, want {want:x}"))
            }
            Request::Timeline { user } => {
                let timeline = Retwis::get_timeline(&self.client, *user)?;
                (timeline.anomalies == 0).then_some(()).ok_or_else(|| {
                    format!(
                        "timeline of user {user}: {} causal anomalies",
                        timeline.anomalies
                    )
                })
            }
            Request::Post { user, id, reply_to } => {
                Retwis::post_tweet(&self.client, *user, id, "bench tweet", reply_to.as_deref())?;
                self.posted.push(id.clone());
                Ok(())
            }
        }
    }

    /// Posted tweets still unreadable after `patience`: write-behind
    /// flushes are asynchronous, so a tweet gets until then to land.
    pub fn unreadable_posts(&self, patience: Duration) -> Vec<String> {
        let deadline = Instant::now() + patience;
        let mut missing = self.posted.clone();
        loop {
            missing
                .retain(|id| !matches!(self.client.get(format!("retwis/tweet/{id}")), Ok(Some(_))));
            if missing.is_empty() || Instant::now() >= deadline {
                return missing;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// The Retwis data set drawn from `seed`.
fn retwis_config(seed: u64) -> RetwisConfig {
    RetwisConfig {
        users: workload::RETWIS_USERS,
        follows_per_user: workload::RETWIS_FOLLOWS,
        zipf: workload::RETWIS_ZIPF,
        initial_tweets: workload::RETWIS_TWEETS,
        reply_fraction: workload::REPLY_FRACTION,
        seed,
    }
}

fn decode(result: Result<InvocationResult, cloudburst::ClientError>) -> Result<i64, String> {
    match result.map_err(|e| e.to_string())? {
        InvocationResult::Ok(bytes) => {
            codec::decode_i64(&bytes).ok_or_else(|| "undecodable result".to_string())
        }
        InvocationResult::Err(e) => Err(e),
    }
}
