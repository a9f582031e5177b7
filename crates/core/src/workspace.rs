//! Per-thread scratch buffers for the execute hot path.
//!
//! The benchmark grid runs every mechanism `settings × samples × trials`
//! times; before this module existed each execution allocated (and freed)
//! its estimate vector, the workload's prefix table, the answer buffers of
//! the matrix mechanism, and assorted per-trial temporaries. A
//! [`Workspace`] is a per-worker-thread pool of reusable buffers threaded
//! through [`Plan::execute`](crate::mechanism::Plan::execute) and
//! [`Workload::scaled_error`](crate::workload::Workload::scaled_error)
//! so steady-state trials recycle every large buffer instead of touching
//! the allocator.
//!
//! The discipline is take/give: `take_f64(len)` hands out a zero-filled
//! `Vec<f64>` (reusing pooled capacity when available), and `give_f64`
//! returns it to the pool once the caller is done. A buffer that escapes —
//! e.g. an estimate carried out in a [`Release`](crate::mechanism::Release)
//! — is simply dropped or, better, given back by the harness after it has
//! computed errors, closing the recycling loop. Mechanisms with richer
//! scratch state (DAWA's sliding-window order-statistic structure, the
//! pooled hierarchies, the hierarchies' node counts of the last vector,
//! SF's memo of its last V-optimal table) stash it in the typed slot via
//! [`Workspace::take_typed`]/[`Workspace::store_typed`].

use crate::domain::Domain;
use crate::query::PrefixTable;
use std::any::{Any, TypeId};
use std::collections::HashMap;

/// Maximum buffers retained per pool: enough for the deepest take/give
/// nesting any mechanism uses, while bounding the memory a long run can
/// park in a worker's workspace.
const POOL_CAP: usize = 32;

/// A pool of reusable scratch buffers. One per worker thread; never shared.
#[derive(Default)]
pub struct Workspace {
    f64_pool: Vec<Vec<f64>>,
    usize_pool: Vec<Vec<usize>>,
    table: Option<PrefixTable>,
    typed: HashMap<TypeId, Box<dyn Any + Send>>,
}

impl Workspace {
    /// An empty workspace. Creation performs no allocation; pools fill up
    /// as buffers are given back.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a zero-filled `f64` buffer of length `len`, reusing pooled
    /// capacity when available.
    pub fn take_f64(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.f64_pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Return an `f64` buffer to the pool. Buffers without capacity are
    /// dropped (pooling them would never save an allocation), as is
    /// anything beyond `POOL_CAP` buffers — callers routinely give back
    /// buffers they did not take (e.g. the runner recycling estimates from
    /// mechanisms that allocate their own), and without a cap the pool
    /// would grow by one domain-sized vector per trial for the lifetime of
    /// the worker thread.
    pub fn give_f64(&mut self, buf: Vec<f64>) {
        if buf.capacity() > 0 && self.f64_pool.len() < POOL_CAP {
            self.f64_pool.push(buf);
        }
    }

    /// Take a zero-filled `usize` buffer of length `len`.
    pub fn take_usize(&mut self, len: usize) -> Vec<usize> {
        let mut buf = self.usize_pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0);
        buf
    }

    /// Return a `usize` buffer to the pool (same `POOL_CAP` bound as
    /// [`Workspace::give_f64`]).
    pub fn give_usize(&mut self, buf: Vec<usize>) {
        if buf.capacity() > 0 && self.usize_pool.len() < POOL_CAP {
            self.usize_pool.push(buf);
        }
    }

    /// The cumulative table over `cells`: the pooled [`PrefixTable`]
    /// rebuilt in place when one was stored, else a new one. Give it back
    /// with [`Workspace::store_table`].
    pub fn table_over(&mut self, cells: &[f64], domain: Domain) -> PrefixTable {
        match self.table.take() {
            Some(mut table) => {
                table.rebuild_cells(cells, domain);
                table
            }
            None => PrefixTable::build_cells(cells, domain),
        }
    }

    /// Store a [`PrefixTable`] for reuse by the next evaluation.
    pub fn store_table(&mut self, table: PrefixTable) {
        self.table = Some(table);
    }

    /// Take (or default-construct) the typed scratch value of type `T`.
    /// Pair with [`Workspace::store_typed`] to persist internal buffers of
    /// arbitrary helper structures across executions. The value stays
    /// boxed so the round trip reuses one allocation instead of re-boxing
    /// per execution.
    pub fn take_typed<T: Default + Send + 'static>(&mut self) -> Box<T> {
        match self.typed.remove(&TypeId::of::<T>()) {
            Some(boxed) => boxed.downcast::<T>().expect("typed slot holds T"),
            None => Box::new(T::default()),
        }
    }

    /// Store a typed scratch value for the next [`Workspace::take_typed`].
    pub fn store_typed<T: Send + 'static>(&mut self, value: Box<T>) {
        self.typed.insert(TypeId::of::<T>(), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_after_give() {
        let mut ws = Workspace::new();
        let mut a = ws.take_f64(4);
        a[2] = 7.0;
        ws.give_f64(a);
        let b = ws.take_f64(8);
        assert_eq!(b, vec![0.0; 8]);
    }

    #[test]
    fn give_recycles_capacity() {
        let mut ws = Workspace::new();
        let a = ws.take_f64(1024);
        let ptr = a.as_ptr();
        ws.give_f64(a);
        let b = ws.take_f64(512);
        assert_eq!(b.as_ptr(), ptr, "pooled buffer should be reused");
    }

    #[test]
    fn usize_pool_roundtrip() {
        let mut ws = Workspace::new();
        let mut a = ws.take_usize(3);
        a[0] = 9;
        ws.give_usize(a);
        assert_eq!(ws.take_usize(3), vec![0; 3]);
    }

    #[test]
    fn typed_scratch_persists() {
        #[derive(Default)]
        struct Scratch(Vec<f64>);
        let mut ws = Workspace::new();
        let mut s: Box<Scratch> = ws.take_typed();
        s.0.push(1.5);
        ws.store_typed(s);
        let s: Box<Scratch> = ws.take_typed();
        assert_eq!(s.0, vec![1.5]);
        // Not stored back: next take defaults.
        let s: Box<Scratch> = ws.take_typed();
        assert!(s.0.is_empty());
    }

    #[test]
    fn pools_are_bounded() {
        // Giving more buffers than were taken (the runner recycles
        // estimates from mechanisms that allocate their own) must not grow
        // the pool without bound.
        let mut ws = Workspace::new();
        for _ in 0..10_000 {
            ws.give_f64(vec![0.0; 64]);
            ws.give_usize(vec![0; 64]);
        }
        assert!(ws.f64_pool.len() <= super::POOL_CAP);
        assert!(ws.usize_pool.len() <= super::POOL_CAP);
    }
}
