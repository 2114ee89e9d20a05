//! Workload inputs, generated from the benchmark seed and written as
//! Bookshelf bundles. The program only ever sees the bundles.

use mcl_db::prelude::*;
use mcl_gen::presets::{iccad17_config, ICCAD17};
use mcl_gen::GeneratorConfig;
use std::path::{Path, PathBuf};

/// One generated input bundle.
pub struct Bundle {
    /// Design name (also the bundle's file stem).
    pub name: String,
    /// Bundle directory.
    pub dir: PathBuf,
    /// Movable cells.
    pub cells: usize,
    /// One-line make-up description for the run header.
    pub makeup: String,
}

/// SplitMix64 finalizer: decorrelates the per-design seeds derived from
/// one workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `cli_total`: ISPD-15-style designs with the Table 2 make-up — 90%
/// single-row, 10% double-row cells, no fences, no rails, no pins, no edge
/// spacing. Eight designs of the same make-up per run: one design's
/// maximum displacement is a tail statistic (2.7 to 7.3 rows over ten
/// seeds), and the mean over the designs of a run spread (interquartile
/// range over median, seeds 1-10) 20% with five 26k-cell designs and 12%
/// with eight of 20k.
pub const TOTAL_CELLS: usize = 20_000;
/// See [`TOTAL_CELLS`].
pub const TOTAL_DESIGNS: u64 = 8;

fn total_config(seed: u64, k: u64) -> GeneratorConfig {
    GeneratorConfig {
        name: format!("t2_total_{k}"),
        seed: mix(seed, 1 + k),
        num_cells: TOTAL_CELLS,
        height_mix: [0.90, 0.10, 0.0, 0.0],
        density: 0.50,
        // σ = 1 row: the mean of five designs' maxima spread (interquartile
        // range over median, ten seeds) 11% at 1 row against 21% at 1.5
        // rows, with the same stage split (stage 3 about 60% of a job).
        sigma_rows: 1.0,
        hotspots: 0,
        hotspot_strength: 0.0,
        hotspot_radius: 0.0,
        fences: 0,
        fence_cell_fraction: 0.0,
        edge_classes: 1,
        edge_spacing_sites: 0,
        rails: false,
        io_pins: 0,
        nets: 0,
        net_degree: (2, 5),
        aspect: 1.2,
    }
}

/// `cli_contest_fenced`: IC/CAD 2017 presets (fences, rails, IO pins,
/// edge spacing, GP hotspots, 2–4-row cells) with different height mixes
/// and densities, each scaled to about 4k cells. The hotspots sit at
/// [`HOTSPOT_CENTERS`], the same for every seed.
pub const CONTEST_PRESETS: [(&str, f64); 5] = [
    ("fft_2_md2", 0.14),
    ("pci_bridge32_a_md2", 0.16),
    ("des_perf_b_md2", 0.04),
    ("fft_a_md3", 0.14),
    ("pci_bridge32_b_md1", 0.155),
];
/// Designs generated per contest preset, seeded apart.
pub const CONTEST_DESIGNS_PER_PRESET: usize = 2;

/// `served_eco_mix`: the resident ECO session's design (~10k cells) and
/// the small bundles of the queued full jobs, submitted in turn. These
/// run without the presets' GP hotspots: the workload measures the service
/// path, and one small design's hotspots would move its job time and
/// quality by a quarter from seed to seed.
pub const ECO_PRESET: (&str, f64) = ("pci_bridge32_a_md1", 0.375);
/// See [`ECO_PRESET`].
pub const JOB_PRESETS: [(&str, f64); 5] = [
    ("fft_a_md2", 0.06),
    ("pci_bridge32_a_md2", 0.07),
    ("edit_dist_a_md3", 0.015),
    ("des_perf_a_md1", 0.016),
    ("pci_bridge32_b_md3", 0.06),
];

fn preset_config(name: &str, scale: f64, seed: u64, salt: u64) -> GeneratorConfig {
    let stats = ICCAD17
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown iccad17 preset {name}"));
    let mut c = iccad17_config(stats, scale);
    c.name = format!("{name}_s{}_{salt}", (scale * 1000.0).round());
    c.seed = mix(seed, salt);
    c
}

/// GP hotspot centres of every generated design that has hotspots (the
/// contest designs), as shares of the core's width and height. The generator draws its centres from the design seed,
/// and where they land dominated the seed-to-seed spread: one design's
/// average displacement ranged from 0.93 to 2.14 rows over six seeds, and
/// the ten-design mean of `avg_disp_rows` and `score_s` spread 15%
/// (interquartile range over median, ten seeds). Fixed centres keep the
/// hotspots' locally overfull regions and take that spread out.
pub const HOTSPOT_CENTERS: [(f64, f64); 4] = [(0.25, 0.3), (0.72, 0.25), (0.3, 0.72), (0.7, 0.7)];

/// Compresses the GP of `d` toward the first `c.hotspots` of
/// [`HOTSPOT_CENTERS`] by the generator's own rule: a movable cell within
/// `c.hotspot_radius` (a share of the core diagonal) of a centre moves
/// `c.hotspot_strength` of the way toward it, clamped into the core.
fn fixed_hotspots(d: &mut Design, c: &GeneratorConfig) {
    let count = c.hotspots.min(HOTSPOT_CENTERS.len());
    if count == 0 || c.hotspot_strength <= 0.0 {
        return;
    }
    let core = d.core;
    let rh = d.tech.row_height;
    let diag = (core.width() as f64).hypot(core.height() as f64).max(1.0);
    let radius = c.hotspot_radius * diag;
    let centers: Vec<(f64, f64)> = HOTSPOT_CENTERS[..count]
        .iter()
        .map(|&(fx, fy)| {
            (
                core.xl as f64 + fx * core.width() as f64,
                core.yl as f64 + fy * core.height() as f64,
            )
        })
        .collect();
    let movable: Vec<CellId> = d.movable_cells().collect();
    for id in movable {
        let gp = d.cells[id.0 as usize].gp;
        let Some(&(cx, cy)) = centers
            .iter()
            .find(|&&(cx, cy)| (cx - gp.x as f64).hypot(cy - gp.y as f64) <= radius)
        else {
            continue;
        };
        let ct = d.type_of(id);
        let (w, h) = (ct.width, ct.height_rows as Dbu * rh);
        let s = c.hotspot_strength;
        let nx = (gp.x as f64 + s * (cx - gp.x as f64)).round() as Dbu;
        let ny = (gp.y as f64 + s * (cy - gp.y as f64)).round() as Dbu;
        d.cells[id.0 as usize].gp = Point::new(
            nx.clamp(core.xl, core.xh - w),
            ny.clamp(core.yl, core.yh - h),
        );
    }
}

/// A served-workload design: the preset without its GP hotspots.
fn served_config(name: &str, scale: f64, seed: u64, salt: u64) -> GeneratorConfig {
    GeneratorConfig {
        hotspots: 0,
        ..preset_config(name, scale, seed, salt)
    }
}

fn describe(c: &GeneratorConfig) -> String {
    let mut s = format!(
        "{}: {} cells, density {:.3}, heights 1/2/3/4 = {:.3}/{:.3}/{:.3}/{:.3}, fences {}, rails {}, io pins {}, nets {}, edge classes {}",
        c.name,
        c.num_cells,
        c.density,
        c.height_mix[0],
        c.height_mix[1],
        c.height_mix[2],
        c.height_mix[3],
        c.fences,
        c.rails,
        c.io_pins,
        c.nets,
        c.edge_classes
    );
    if c.hotspots > 0 {
        s += &format!(
            ", hotspots {} at fixed centres (strength {}, radius {})",
            c.hotspots, c.hotspot_strength, c.hotspot_radius
        );
    }
    s
}

/// Generates `c` with its GP hotspots (if any) at [`HOTSPOT_CENTERS`]
/// and writes it as a Bookshelf bundle.
fn write(c: &GeneratorConfig, root: &Path) -> Bundle {
    let mut g = mcl_gen::generate(&GeneratorConfig {
        hotspots: 0,
        ..c.clone()
    })
    .unwrap_or_else(|e| panic!("generating {}: {e}", c.name));
    fixed_hotspots(&mut g.design, c);
    let dir = root.join(&c.name);
    mcl_parsers::write_bookshelf_dir(&g.design, &dir, &c.name)
        .unwrap_or_else(|e| panic!("writing {}: {e}", dir.display()));
    Bundle {
        name: c.name.clone(),
        dir,
        cells: g.design.movable_cells().count(),
        makeup: describe(c),
    }
}

/// Seed of the `k`-th ECO delta of a run. Kept below 2^32: the serve wire
/// carries numbers as JSON doubles, so every seed must be exact in one.
pub fn delta_seed(seed: u64, k: u64) -> u64 {
    mix(seed, 1_000_000 + k) >> 32
}

/// The `cli_total` bundles.
pub fn cli_total(seed: u64, root: &Path) -> Vec<Bundle> {
    (0..TOTAL_DESIGNS)
        .map(|k| write(&total_config(seed, k), root))
        .collect()
}

/// The `cli_contest_fenced` bundles, in legalization order.
pub fn cli_contest(seed: u64, root: &Path) -> Vec<Bundle> {
    CONTEST_PRESETS
        .iter()
        .enumerate()
        .flat_map(|(k, &(name, scale))| {
            (0..CONTEST_DESIGNS_PER_PRESET)
                .map(move |r| (k + r * CONTEST_PRESETS.len(), name, scale))
        })
        .map(|(salt, name, scale)| write(&preset_config(name, scale, seed, 10 + salt as u64), root))
        .collect()
}

/// The `served_eco_mix` bundles: `(session design, queued job designs)`.
pub fn served(seed: u64, root: &Path) -> (Bundle, Vec<Bundle>) {
    let eco = write(&served_config(ECO_PRESET.0, ECO_PRESET.1, seed, 100), root);
    let jobs = JOB_PRESETS
        .iter()
        .enumerate()
        .map(|(k, &(name, scale))| write(&served_config(name, scale, seed, 101 + k as u64), root))
        .collect();
    (eco, jobs)
}
