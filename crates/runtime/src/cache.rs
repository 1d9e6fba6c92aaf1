//! Shared instrumented-module cache.
//!
//! PR 3 gave each [`Engine`](crate::Engine) a private cache of
//! instrumented modules so repeated checks of one kernel pay for one
//! rewrite. A serving fleet multiplies that win: a pool of engines (and
//! every engine rebuilt after a quarantine or an LRU eviction) can share
//! one [`ModuleCache`] behind an `Arc`, so a cold engine skips straight
//! to the cached rewrite instead of re-instrumenting the fleet's whole
//! working set. The cache is keyed by tagged source/AST hash (the
//! engine's `hash_key`); entries are never evicted — the key space is
//! the set of distinct programs a server has seen. Entries are not
//! small: for the 26 Table-1 kernels at the benchmark's scale, the loaded
//! kernels (a kernel AST plus its decoded micro-ops each) hold 18.5 MB of
//! heap, dwt2d's alone 6.5 MB, beside 18.3 MB of instrumented modules.

use crate::Error;
use barracuda_instrument::InstrumentStats;
use barracuda_ptx::ast::Module;
use barracuda_simt::LoadedKernel;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One instrumented module, cached so repeated checks of the same source
/// reuse the rewrite and the per-kernel load (CFG construction, decode).
#[derive(Debug)]
struct CachedModule {
    module: Arc<Module>,
    stats: InstrumentStats,
    kernels: HashMap<String, LoadedKernel>,
}

/// A thread-safe instrumented-module cache, shareable across engines.
#[derive(Debug, Default)]
pub struct ModuleCache {
    inner: Mutex<HashMap<u64, CachedModule>>,
    hits: AtomicU64,
}

impl ModuleCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache behind an `Arc`, ready to hand to
    /// [`Engine::with_shared_cache`](crate::Engine::with_shared_cache).
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Locks the map, recovering from poisoning: a panic during a
    /// build leaves the map untouched (entries are inserted only after
    /// a successful build), so the state is consistent and one
    /// quarantined engine must not wedge the whole fleet's cache.
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, CachedModule>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Distinct modules instrumented so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no module has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Lookups that reused a cached instrumentation instead of
    /// rewriting, across every engine sharing this cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Resolves `kernel` in the module cached under `key`, instrumenting
    /// via `build` on a miss. Returns the loaded kernel (cheap clone),
    /// the instrumentation stats, and whether the module was a cache
    /// hit. The lock is held across a miss's build so concurrent engines
    /// asking for the same new module instrument it once.
    pub(crate) fn kernel(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<(Module, InstrumentStats), Error>,
        kernel: &str,
    ) -> Result<(LoadedKernel, InstrumentStats, bool), Error> {
        let mut g = self.lock();
        let hit = match g.entry(key) {
            Entry::Occupied(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            Entry::Vacant(v) => {
                let (module, stats) = build()?;
                v.insert(CachedModule {
                    module: Arc::new(module),
                    stats,
                    kernels: HashMap::new(),
                });
                false
            }
        };
        let cm = g.get_mut(&key).expect("cached above");
        let stats = cm.stats;
        let lk = match cm.kernels.get(kernel) {
            Some(lk) => lk.clone(),
            None => {
                let lk = LoadedKernel::load(&cm.module, kernel)?;
                cm.kernels.insert(kernel.to_string(), lk.clone());
                lk
            }
        };
        Ok((lk, stats, hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PTX: &str = r#"
.version 4.3
.target sm_35
.address_size 64
.visible .entry k()
{
    ret;
}
"#;

    fn build() -> Result<(Module, InstrumentStats), Error> {
        let module = barracuda_ptx::parse(PTX)?;
        Ok(barracuda_instrument::instrument_module(
            &module,
            &barracuda_instrument::InstrumentOptions::default(),
        ))
    }

    #[test]
    fn second_lookup_hits_without_rebuilding() {
        let cache = ModuleCache::new();
        let (_, _, hit) = cache.kernel(7, build, "k").expect("build");
        assert!(!hit);
        let (_, _, hit) = cache
            .kernel(7, || panic!("must not rebuild"), "k")
            .expect("cached");
        assert!(hit);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn shared_cache_serves_many_consumers() {
        let cache = ModuleCache::shared();
        let a = Arc::clone(&cache);
        let t = std::thread::spawn(move || {
            a.kernel(1, build, "k").expect("build or hit");
        });
        cache.kernel(1, build, "k").expect("build or hit");
        t.join().expect("join");
        assert_eq!(cache.len(), 1, "one module despite two consumers");
        assert_eq!(cache.hits(), 1, "exactly one of the two was a hit");
    }
}
