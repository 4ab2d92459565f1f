//! The server host: a child process of the benchmark that runs the
//! server (or the router and its shard servers), so `peak_rss_mb` measures
//! the serving process alone and not the load generator or the oracle.
//!
//! The child announces its listening addresses on stdout, then serves until
//! its stdin closes, shuts every server down and joins them before exiting.
//! A benchmark that dies closes the pipe too, so no host outlives it.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;

use datastore::{Catalog, DatasetCacheConfig, Store};
use vdx_server::cluster::{partition_steps, GroupSpec};
use vdx_server::{Router, RouterConfig, Server, ServerConfig, ShardMap};

use crate::workload::Workload;

/// Shard groups of the `cluster` workload (one replica each).
const CLUSTER_GROUPS: usize = 3;

/// The server configuration every workload runs: the defaults, except for
/// the deployment setting of the dataset-cache budget.
pub fn server_config(cache_bytes: usize) -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        dataset_cache: DatasetCacheConfig {
            max_bytes: cache_bytes,
            ..defaults.dataset_cache.clone()
        },
        ..defaults
    }
}

/// Open `dir` as a catalog with the segment store at `store_dir` attached.
pub fn open_with_store(dir: &Path, store_dir: &Path) -> Result<Catalog, String> {
    let mut catalog = Catalog::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let store = Store::open(store_dir).map_err(|e| format!("store: {e}"))?;
    catalog.attach_store(store);
    Ok(catalog)
}

/// The timesteps each shard group owns, in the router's partition.
pub fn shard_steps(steps: &[usize]) -> Vec<Vec<usize>> {
    partition_steps(steps, CLUSTER_GROUPS)
}

/// The router's map over `steps`: group `g` is served by `backends[g]`.
pub fn shard_map(steps: &[usize], backends: &[SocketAddr]) -> ShardMap {
    ShardMap {
        groups: shard_steps(steps)
            .into_iter()
            .zip(backends)
            .map(|(steps, &addr)| GroupSpec {
                steps,
                replicas: vec![addr],
            })
            .collect(),
    }
}

/// Hard-link (or copy) the files of `steps` from `dir` into `shard_dir`.
fn link_shard(dir: &Path, shard_dir: &Path, steps: &[usize]) -> Result<(), String> {
    std::fs::create_dir_all(shard_dir).map_err(|e| format!("shard dir: {e}"))?;
    for &step in steps {
        for ext in ["vdc", "vdi", "vdj"] {
            let name = format!("timestep_{step:05}.{ext}");
            let src = dir.join(&name);
            if src.exists() {
                let dst = shard_dir.join(&name);
                if std::fs::hard_link(&src, &dst).is_err() {
                    std::fs::copy(&src, &dst).map_err(|e| format!("copy {name}: {e}"))?;
                }
            }
        }
    }
    Ok(())
}

/// The body of `perfbench host`: bind, announce, serve until stdin closes.
pub fn serve(
    workload: Workload,
    dir: &Path,
    store_dir: &Path,
    cache_bytes: usize,
) -> Result<(), String> {
    let config = server_config(cache_bytes);
    let bind = |catalog: Catalog| {
        Server::bind(Arc::new(catalog), "127.0.0.1:0", config.clone())
            .map(Server::spawn)
            .map_err(|e| format!("bind server: {e}"))
    };
    let mut servers = Vec::new();
    let mut router = None;
    if workload == Workload::Cluster {
        let steps = Catalog::open(dir)
            .map_err(|e| format!("open catalog: {e}"))?
            .steps();
        let mut backends = Vec::new();
        for (g, owned) in shard_steps(&steps).into_iter().enumerate() {
            let shard_dir = dir.join(format!("shard{g}"));
            link_shard(dir, &shard_dir, &owned)?;
            let (handle, join) = bind(open_with_store(
                &shard_dir,
                &store_dir.join(format!("shard{g}")),
            )?)?;
            println!("backend {}", handle.addr());
            backends.push(handle.addr());
            servers.push((handle, join));
        }
        let bound = Router::bind(
            shard_map(&steps, &backends),
            "127.0.0.1:0",
            RouterConfig::default(),
        )
        .map_err(|e| format!("bind router: {e}"))?;
        let (handle, join) = bound.spawn();
        println!("front {}", handle.addr());
        router = Some((handle, join));
    } else {
        let (handle, join) = bind(open_with_store(dir, store_dir)?)?;
        println!("front {}", handle.addr());
        servers.push((handle, join));
    }
    println!("ready");
    // Serve until the benchmark closes our stdin (or dies).
    let mut sink = Vec::new();
    std::io::stdin().read_to_end(&mut sink).ok();
    let mut result = Ok(());
    if let Some((handle, join)) = router {
        handle.shutdown();
        if let Ok(Err(e)) | Err(e) = join
            .join()
            .map_err(|_| std::io::Error::other("router thread panicked"))
        {
            result = Err(format!("router: {e}"));
        }
    }
    for (handle, join) in servers {
        handle.shutdown();
        if let Ok(Err(e)) | Err(e) = join
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))
        {
            result = Err(format!("server: {e}"));
        }
    }
    result
}

/// A running host child process.
#[derive(Debug)]
pub struct Host {
    child: Child,
    stdin: Option<ChildStdin>,
    /// The address clients talk to: the server, or the router.
    pub front: SocketAddr,
    /// The shard servers behind the router (empty without one).
    pub backends: Vec<SocketAddr>,
}

impl Host {
    /// Start `exe host …` for `workload` over the catalog in `dir`.
    pub fn start(
        exe: &Path,
        workload: Workload,
        dir: &Path,
        store_dir: &Path,
        cache_bytes: usize,
    ) -> Result<Host, String> {
        let mut child = Command::new(exe)
            .arg("host")
            .args(["--workload", workload.name()])
            .arg("--catalog")
            .arg(dir)
            .arg("--store")
            .arg(store_dir)
            .args(["--cache-bytes", &cache_bytes.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn host: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        let mut host = Host {
            child,
            stdin,
            front: SocketAddr::from(([127, 0, 0, 1], 0)),
            backends: Vec::new(),
        };
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("host stdout: {e}"))?;
            let parse = |addr: &str| {
                addr.parse::<SocketAddr>()
                    .map_err(|e| format!("host address {addr}: {e}"))
            };
            match line.split_once(' ') {
                Some(("front", addr)) => host.front = parse(addr)?,
                Some(("backend", addr)) => host.backends.push(parse(addr)?),
                _ if line == "ready" => return Ok(host),
                _ => return Err(format!("unexpected host output: {line}")),
            }
        }
        Err("host exited before it was ready".to_string())
    }

    /// Peak resident memory of the host process so far, in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read host status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in host status".to_string())
    }

    /// Close the host's stdin and wait for it to shut down cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| format!("wait host: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("host exited with {status}"))
        }
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            // Not stopped cleanly (an error path): do not wait on a host that
            // may be wedged.
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}

/// Store directory of a run directory.
pub fn store_dir(run_dir: &Path) -> PathBuf {
    run_dir.join("store")
}
