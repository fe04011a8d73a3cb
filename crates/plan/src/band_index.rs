//! The band index of one event type's route entry: which of its stacks a
//! value passes, found with one binary search instead of one [`Band`] run
//! per stack.

use sequin_query::BinaryOp;
use sequin_types::FieldId;

use crate::{Band, StackNode};

/// The stacks of a route entry whose [`Band`]s read one field, indexed by
/// that field's value. The distinct constants of their tests, sorted, cut
/// the `i64`s into *cells* — each constant, and the open gap below, between
/// and above them — and every value of a cell passes the same tests, so a
/// cell lists the stacks that pass there. Positions are into the entry's
/// `stacks`, ascending, so a caller visits the passing stacks in entry order.
///
/// A stack whose band holds a `!=` (its passing values are no interval),
/// reads another field, or has no band at all is *loose*: the index does
/// not decide it.
#[derive(Debug, Clone)]
pub struct BandIndex {
    field: FieldId,
    /// The constants of the indexed bands' tests, ascending, distinct.
    consts: Vec<i64>,
    /// `passing[starts[c]..starts[c + 1]]` lists cell `c`'s stacks.
    starts: Vec<u32>,
    passing: Vec<u32>,
    /// Entry positions of the indexed stacks, ascending.
    indexed: Vec<u32>,
    /// Entry positions of the loose stacks, ascending.
    loose: Vec<u32>,
}

impl BandIndex {
    /// The cells an indexed stack may pass, on average, before an index
    /// costs more memory than it saves time: nested bands (`c.x >= i`)
    /// pass a number of cells that grows with the family, so their lists
    /// grow with its square, and such an entry stays unindexed.
    const CELLS_PER_STACK: usize = 64;

    /// The index of the entry whose pooled stacks are `stacks`, over the
    /// field the most bands there read, or `None` when fewer than two
    /// stacks would be indexed, or their lists would pass the memory bound.
    pub fn build(stacks: &[usize], nodes: &[StackNode]) -> Option<BandIndex> {
        let banded = |six: usize| {
            let band = nodes[six].band.as_ref()?;
            Some((band, band.interval()?))
        };
        let mut fields: Vec<(FieldId, usize)> = Vec::new();
        for (band, _) in stacks.iter().filter_map(|&six| banded(six)) {
            match fields.iter_mut().find(|(f, _)| *f == band.field) {
                Some((_, n)) => *n += 1,
                None => fields.push((band.field, 1)),
            }
        }
        let (field, n) = fields.into_iter().max_by_key(|&(_, n)| n)?;
        if n < 2 {
            return None;
        }
        let on_field = |six: usize| banded(six).filter(|(band, _)| band.field == field);
        let mut consts: Vec<i64> = stacks
            .iter()
            .filter_map(|&six| on_field(six))
            .flat_map(|(band, _)| band.tests.iter().map(|&(_, c)| c))
            .collect();
        consts.sort_unstable();
        consts.dedup();
        let mut index = BandIndex {
            field,
            consts,
            starts: Vec::new(),
            passing: Vec::new(),
            indexed: Vec::new(),
            loose: Vec::new(),
        };
        // each indexed stack passes one run of cells, `first..=last`
        let mut runs: Vec<(u32, usize, usize)> = Vec::new();
        for (pos, &six) in stacks.iter().enumerate() {
            let pos = pos as u32;
            let Some((_, (lo, hi))) = on_field(six) else {
                index.loose.push(pos);
                continue;
            };
            index.indexed.push(pos);
            if lo <= hi {
                runs.push((pos, index.cell(lo), index.cell(hi)));
            }
        }
        let passes: usize = runs.iter().map(|&(_, first, last)| last - first + 1).sum();
        if passes > Self::CELLS_PER_STACK * index.indexed.len() {
            return None;
        }
        // the lists, by counting: runs come in entry order, so every
        // cell's list does too
        let mut starts = vec![0u32; index.cells() + 1];
        for &(_, first, last) in &runs {
            starts[first + 1..=last + 1]
                .iter_mut()
                .for_each(|n| *n += 1);
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        let mut fill = starts.clone();
        index.passing = vec![0; passes];
        for &(pos, first, last) in &runs {
            for next in &mut fill[first..=last] {
                index.passing[*next as usize] = pos;
                *next += 1;
            }
        }
        index.starts = starts;
        Some(index)
    }

    /// The field the index reads.
    pub fn field(&self) -> FieldId {
        self.field
    }

    /// How many cells the constants cut the `i64`s into.
    pub fn cells(&self) -> usize {
        2 * self.consts.len() + 1
    }

    /// The cell of `v`: `2i + 1` for the `i`-th constant, `2i` for the gap
    /// below it (`2k` above the last of `k`).
    pub fn cell(&self, v: i64) -> usize {
        match self.consts.binary_search(&v) {
            Ok(i) => 2 * i + 1,
            Err(i) => 2 * i,
        }
    }

    /// Entry positions of the stacks every value of `cell` passes,
    /// ascending.
    pub fn passing(&self, cell: usize) -> &[u32] {
        let (from, to) = (self.starts[cell], self.starts[cell + 1]);
        &self.passing[from as usize..to as usize]
    }

    /// Entry positions of the stacks the index decides, ascending.
    pub fn indexed(&self) -> &[u32] {
        &self.indexed
    }

    /// Entry positions of the stacks it does not, ascending.
    pub fn loose(&self) -> &[u32] {
        &self.loose
    }

    /// What the values counted in `hits` (arrivals per cell) cost indexed
    /// stack `node` had each been run through its band: `(offers,
    /// predicate evaluations)`.
    pub fn debt(&self, node: &StackNode, hits: &[u64]) -> (u64, u64) {
        let band = node.band.as_ref().expect("an indexed stack is banded");
        let (mut offers, mut evals) = (0, 0);
        for (cell, &n) in hits.iter().enumerate().filter(|(_, &n)| n > 0) {
            let failed = band.first_failing(self.value_in(cell));
            offers += n;
            evals += n * failed.map_or(band.tests.len(), |ix| ix + 1) as u64;
        }
        (offers, evals)
    }

    /// A value of `cell`, which a hit proves is not an empty gap.
    fn value_in(&self, cell: usize) -> i64 {
        let i = cell / 2;
        match self.consts.get(i) {
            _ if cell % 2 == 1 => self.consts[i],
            Some(above) => above.saturating_sub(1),
            None => self.consts[i - 1].saturating_add(1),
        }
    }
}

impl Band {
    /// The values passing every test, `lo..=hi` (empty when `lo > hi`), or
    /// `None` when a `!=` makes them no interval.
    fn interval(&self) -> Option<(i64, i64)> {
        let (mut lo, mut hi) = (i128::from(i64::MIN), i128::from(i64::MAX));
        for &(op, c) in &self.tests {
            let c = i128::from(c);
            match op {
                BinaryOp::Lt => hi = hi.min(c - 1),
                BinaryOp::Le => hi = hi.min(c),
                BinaryOp::Gt => lo = lo.max(c + 1),
                BinaryOp::Ge => lo = lo.max(c),
                BinaryOp::Eq => (lo, hi) = (lo.max(c), hi.min(c)),
                _ => return None,
            }
        }
        // `lo` only rises from `i64::MIN` and `hi` only falls from
        // `i64::MAX`, so a non-empty interval is one of `i64`s
        Some(match lo <= hi {
            true => (lo as i64, hi as i64),
            false => (0, -1),
        })
    }
}
