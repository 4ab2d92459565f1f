//! Catalog generation: the write half of set-up.
//!
//! Generation is split so set-up time can be attributed: the simulation
//! step and snapshot (`generate_s`), then the catalog write with its bitmap
//! index build (`index_build_s`). The segment-store write happens later,
//! inside the server, through `WARM` on an empty store.

use std::path::{Path, PathBuf};
use std::time::Instant;

use datastore::Catalog;
use histogram::Binning;
use lwfa::{SimConfig, Simulation};

use crate::workload::{Scale, Space};

/// Bins of the sidecar bitmap indexes (the explorer's and store's default).
const INDEX_BINS: usize = 256;

/// A generated catalog directory and what its generation cost.
#[derive(Debug)]
pub struct Generated {
    /// The catalog directory.
    pub dir: PathBuf,
    /// Per-step quantiles the plans draw thresholds from.
    pub space: Space,
    /// Seconds spent simulating and snapshotting.
    pub generate_s: f64,
    /// Seconds spent writing columns and building and writing indexes.
    pub index_build_s: f64,
    /// On-disk bytes of the catalog (columns, indexes, id indexes).
    pub raw_bytes: u64,
}

/// The simulation configuration a seed selects.
fn sim_config(scale: Scale, seed: u64) -> SimConfig {
    let mut config = SimConfig::scaling(scale.particles, scale.timesteps);
    config.seed = seed;
    config
}

/// Generate the catalog for `scale` and `seed` into `dir` (which must not
/// exist yet).
pub fn generate(dir: &Path, scale: Scale, seed: u64) -> Result<Generated, String> {
    let mut catalog = Catalog::create(dir).map_err(|e| format!("create catalog: {e}"))?;
    let binning = Binning::EqualWidth { bins: INDEX_BINS };
    let mut sim = Simulation::new(sim_config(scale, seed));
    let mut space = Space::default();
    let (mut generate_s, mut index_build_s) = (0.0, 0.0);
    for step in 0..scale.timesteps {
        let started = Instant::now();
        if step > 0 {
            sim.step();
        }
        let table = sim.snapshot();
        generate_s += started.elapsed().as_secs_f64();
        space.add_step(&table);
        let started = Instant::now();
        catalog
            .write_timestep(step, &table, Some(&binning))
            .map_err(|e| format!("write step {step}: {e}"))?;
        index_build_s += started.elapsed().as_secs_f64();
    }
    let raw_bytes = catalog
        .total_size_bytes()
        .map_err(|e| format!("catalog size: {e}"))?;
    Ok(Generated {
        dir: dir.to_path_buf(),
        space,
        generate_s,
        index_build_s,
        raw_bytes,
    })
}
