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
//! the set of distinct programs a server has seen. Each kernel AST is held
//! once: a module's kernels wait in the entry as the instrumenter emitted
//! them until first requested, then move into their [`LoadedKernel`]
//! (the AST beside its decoded micro-ops).

use crate::Error;
use barracuda_instrument::InstrumentStats;
use barracuda_ptx::ast::{Kernel, Module};
use barracuda_simt::{LoadedKernel, SimError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One instrumented module, cached so repeated checks of the same source
/// reuse the rewrite and the per-kernel load (CFG construction, decode).
#[derive(Debug)]
struct CachedModule {
    stats: InstrumentStats,
    /// The instrumented kernels no request has named yet.
    unloaded: Vec<Kernel>,
    /// Each requested kernel's load outcome, errors included, so a
    /// malformed kernel fails with the same error on every request.
    loaded: HashMap<String, Result<LoadedKernel, SimError>>,
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
                    stats,
                    unloaded: module.kernels,
                    loaded: HashMap::new(),
                });
                false
            }
        };
        let cm = g.get_mut(&key).expect("cached above");
        let loaded = match cm.loaded.get(kernel) {
            Some(loaded) => loaded.clone(),
            None => {
                // The first kernel of that name, as `Module::kernel` finds.
                let i = cm
                    .unloaded
                    .iter()
                    .position(|k| k.name == kernel)
                    .ok_or_else(|| SimError::UnknownKernel(kernel.to_string()))?;
                let loaded = LoadedKernel::from_kernel(cm.unloaded.remove(i));
                cm.loaded.insert(kernel.to_string(), loaded.clone());
                loaded
            }
        };
        Ok((loaded?, cm.stats, hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BarracudaConfig, Engine, KernelRun, ParamValue};
    use barracuda_ptx::ast::Op;
    use barracuda_trace::GridDims;

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

    /// A kernel that fails load-time validation fails with the same error
    /// on every request: the cache keeps the load's outcome, not the AST.
    #[test]
    fn a_malformed_kernel_fails_the_same_way_twice() {
        let mut b = barracuda_ptx::builder::KernelBuilder::new("bad");
        b.push(Op::Call {
            target: "mystery".into(),
            args: vec![],
        });
        b.push(Op::Ret);
        let module = b.build_module();
        let cache = ModuleCache::shared();
        let mut engine = Engine::with_shared_cache(BarracudaConfig::default(), Arc::clone(&cache));
        let mut check = || match engine.check_module(&module, "bad", GridDims::new(1u32, 4u32), &[])
        {
            Err(Error::Sim(e)) => e,
            other => panic!("expected a load error, got {other:?}"),
        };
        let first = check();
        assert!(
            matches!(first, SimError::BadInstruction { ref reason, .. } if reason.contains("mystery")),
            "{first:?}"
        );
        assert_eq!(check(), first);
        assert_eq!(cache.hits(), 1, "the second request reuses the entry");
    }

    /// Two kernels of one module: each loads from the one cached
    /// instrumentation and keeps its own verdict, and an unknown name
    /// fails without disturbing either.
    #[test]
    fn two_kernels_of_one_module_load_from_one_entry() {
        let source = r#"
.version 4.3
.target sm_35
.address_size 64
.visible .entry racy(.param .u64 buf)
{
    .reg .b64 %rd<2>;
    .reg .b32 %r<2>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    st.global.u32 [%rd1], %r1;
    ret;
}
.visible .entry clean(.param .u64 buf)
{
    .reg .b64 %rd<4>;
    .reg .b32 %r<2>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.s64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r1;
    ret;
}
"#;
        let cache = ModuleCache::shared();
        let mut engine = Engine::with_shared_cache(BarracudaConfig::default(), Arc::clone(&cache));
        let buf = engine.gpu_mut().malloc(4 * 64);
        let mut check = |kernel| {
            engine.check(&KernelRun {
                source,
                kernel,
                dims: GridDims::new(1u32, 64u32),
                params: &[ParamValue::Ptr(buf)],
            })
        };
        for _ in 0..2 {
            assert!(check("racy").expect("racy runs").race_count() > 0);
            assert_eq!(check("clean").expect("clean runs").race_count(), 0);
        }
        assert!(matches!(
            check("missing"),
            Err(Error::Sim(SimError::UnknownKernel(ref k))) if k == "missing"
        ));
        assert!(check("racy").expect("racy still runs").race_count() > 0);
        assert_eq!(cache.len(), 1, "one module for both kernels");
        assert_eq!(cache.hits(), 5, "only the first check instruments");
    }
}
