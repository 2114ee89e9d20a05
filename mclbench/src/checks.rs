//! Correctness checks, computed apart from the program: every check either
//! recomputes a quantity with the benchmark's own arithmetic or tests a
//! property the method must have. None compares against stored output.

use mcl_core::LegalizeStats;
use mcl_db::prelude::*;
use mcl_obs::report::{RunReport, Value};
use std::collections::BTreeMap;

/// A failed check.
pub type Check = Result<(), String>;

/// Eq. 2 `S_am` (mean over the heights present of each height's mean
/// Manhattan displacement, in rows) and the maximum displacement in rows,
/// from the positions alone. Unplaced movable cells count zero.
pub fn own_displacement(d: &Design) -> (f64, f64) {
    let rh = d.tech.row_height as f64;
    let mut by_height: BTreeMap<u32, (i128, u64)> = BTreeMap::new();
    let mut max: i128 = 0;
    for c in d.cells.iter().filter(|c| !c.fixed) {
        let disp = c.pos.map_or(0i128, |p| {
            i128::from((p.x - c.gp.x).abs()) + i128::from((p.y - c.gp.y).abs())
        });
        let h = d.cell_types[c.type_id.0 as usize].height_rows;
        let e = by_height.entry(h).or_insert((0, 0));
        e.0 += disp;
        e.1 += 1;
        max = max.max(disp);
    }
    let mut sum = 0.0;
    for &(total, count) in by_height.values() {
        sum += total as f64 / count as f64 / rh;
    }
    let s_am = if by_height.is_empty() {
        0.0
    } else {
        sum / by_height.len() as f64
    };
    (s_am, max as f64 / rh)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn quality(rep: &RunReport, name: &str) -> Option<f64> {
    rep.quality
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| match v {
            Value::F64(x) => *x,
            Value::U64(x) => *x as f64,
        })
}

/// A legal, complete placement: every movable cell placed, the clean-room
/// auditor finds no hard violation, and it agrees with `Checker` on the
/// count.
pub fn legal_and_complete(d: &Design, check: &LegalityReport) -> Check {
    let unplaced = d
        .cells
        .iter()
        .filter(|c| !c.fixed && c.pos.is_none())
        .count();
    if unplaced > 0 {
        return Err(format!("{}: {unplaced} movable cells unplaced", d.name));
    }
    let audit = mcl_audit::verify(d);
    if audit.hard_violations() != 0 {
        return Err(format!(
            "{}: auditor found {} hard violations: {:?}",
            d.name,
            audit.hard_violations(),
            audit.notes
        ));
    }
    if audit.hard_violations() != check.hard_violations() {
        return Err(format!(
            "{}: auditor counts {} hard violations, Checker {}",
            d.name,
            audit.hard_violations(),
            check.hard_violations()
        ));
    }
    Ok(())
}

/// Every check on one job's output: complete and legal, a full-success
/// claim, and the reported `S_am` and maximum displacement equal to the
/// benchmark's own recomputation.
pub fn job_output(placed: &Design, stats: &LegalizeStats, rep: &RunReport) -> Check {
    if !stats.claims_full_success() || !rep.claims_full_success() {
        return Err(format!("{}: run does not claim full success", placed.name));
    }
    legal_and_complete(placed, &Checker::new(placed).check())?;
    let (s_am, max) = own_displacement(placed);
    for (name, own) in [("avg_disp_rows", s_am), ("max_disp_rows", max)] {
        let reported = quality(rep, name)
            .ok_or_else(|| format!("{}: report lacks quality.{name}", placed.name))?;
        if !close(own, reported) {
            return Err(format!(
                "{}: reported {name} {reported} != recomputed {own}",
                placed.name
            ));
        }
    }
    Ok(())
}

/// Eq. 3 `φ(δ)`: linear up to `δ₀`, `δ⁵/δ₀⁴` beyond.
fn phi(delta: f64, delta0: f64) -> f64 {
    if delta <= delta0 {
        delta
    } else {
        delta * (delta / delta0).powi(4)
    }
}

/// Stage-2 objective: total `φ` displacement cost per (cell type × fence)
/// group, over the placed movable cells at `pos`.
pub fn phi_by_group(
    d: &Design,
    pos: &[Option<Point>],
    delta0_rows: f64,
) -> BTreeMap<(u32, u16), (f64, usize)> {
    let delta0 = (delta0_rows * d.tech.row_height as f64).round().max(1.0);
    let mut out: BTreeMap<(u32, u16), (f64, usize)> = BTreeMap::new();
    for (i, c) in d.cells.iter().enumerate() {
        if c.fixed {
            continue;
        }
        let Some(p) = pos[i] else { continue };
        let delta = ((p.x - c.gp.x).abs() + (p.y - c.gp.y).abs()) as f64;
        let e = out.entry((c.type_id.0, c.fence.0)).or_insert((0.0, 0));
        e.0 += phi(delta, delta0);
        e.1 += 1;
    }
    out
}

/// No group's `φ` cost rose across stage 2. The program rounds each `φ`
/// term to whole database units, so each cell may differ by half a unit.
pub fn phi_not_rising(
    name: &str,
    before: &BTreeMap<(u32, u16), (f64, usize)>,
    after: &BTreeMap<(u32, u16), (f64, usize)>,
) -> Check {
    for (key, &(b, n)) in before {
        let a = after.get(key).map_or(0.0, |v| v.0);
        if a > b + n as f64 + 1e-9 * b {
            return Err(format!(
                "{name}: maxdisp raised the phi cost of group {key:?}: {b} -> {a}"
            ));
        }
    }
    Ok(())
}

/// Stage-3 objective (Eq. 4, with the Eq. 8 extension when `n0_factor` is
/// non-zero), in site units over the placed movable cells:
/// `Σ w_i |x_i − x'_i| + n₀ max(0, max_i(x_i − x'_i + δy_i) − max δy)
///  + n₀ max(0, max_i(x'_i − x_i + δy_i) − max δy)`, with `x'_i` the GP x
/// snapped to the nearest site and `δy_i` the row displacement in sites.
pub fn fixed_order_objective(
    d: &Design,
    pos: &[Option<Point>],
    weights: &[i64],
    n0_factor: i64,
) -> i128 {
    let sw = d.tech.site_width;
    let xl = d.core.xl;
    let mut sum: i128 = 0;
    let mut wmax: i64 = 0;
    let mut max_dy: i64 = 0;
    let mut hi_dev = i64::MIN;
    let mut lo_dev = i64::MIN;
    for (i, c) in d.cells.iter().enumerate() {
        if c.fixed {
            continue;
        }
        let Some(p) = pos[i] else { continue };
        let r = (c.gp.x - xl).rem_euclid(sw);
        let snapped = if r > sw / 2 {
            c.gp.x - r + sw
        } else {
            c.gp.x - r
        };
        let xp = (snapped - xl).div_euclid(sw);
        let x = (p.x - xl).div_euclid(sw);
        let dy = ((p.y - c.gp.y).abs() + sw / 2) / sw;
        let w = weights[i];
        sum += i128::from(w) * i128::from((x - xp).abs());
        wmax = wmax.max(w);
        max_dy = max_dy.max(dy);
        hi_dev = hi_dev.max(x - xp + dy);
        lo_dev = lo_dev.max(xp - x + dy);
    }
    if n0_factor > 0 && hi_dev != i64::MIN {
        let n0 = i128::from(n0_factor) * i128::from(wmax);
        sum += n0 * i128::from((hi_dev - max_dy).max(0));
        sum += n0 * i128::from((lo_dev - max_dy).max(0));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> Design {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 1000, 900));
        let s = d.add_cell_type(CellType::new("s", 20, 1));
        let m = d.add_cell_type(CellType::new("m", 30, 2));
        let mut a = Cell::new("a", s, Point::new(0, 0));
        a.pos = Some(Point::new(90, 0));
        d.add_cell(a);
        let mut b = Cell::new("b", s, Point::new(100, 0));
        b.pos = Some(Point::new(100, 180));
        d.add_cell(b);
        let mut c = Cell::new("c", m, Point::new(500, 0));
        c.pos = Some(Point::new(590, 0));
        d.add_cell(c);
        d
    }

    #[test]
    fn displacement_matches_eq2_by_hand() {
        // Height 1: (90 + 180) / 2 / 90 = 1.5 rows; height 2: 1 row.
        let (s_am, max) = own_displacement(&design());
        assert!((s_am - 1.25).abs() < 1e-12);
        assert!((max - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_order_objective_is_weighted_x_displacement() {
        let d = design();
        let pos: Vec<Option<Point>> = d.cells.iter().map(|c| c.pos).collect();
        let sw = d.tech.site_width;
        // x displacements in sites: 90/sw, 0, 90/sw.
        assert_eq!(
            fixed_order_objective(&d, &pos, &[1, 1, 2], 0),
            i128::from(90 / sw + 2 * (90 / sw))
        );
    }

    #[test]
    fn phi_is_linear_then_steep() {
        assert_eq!(phi(5.0, 10.0), 5.0);
        assert_eq!(phi(20.0, 10.0), 20.0 * 16.0);
    }
}
