//! The environment pinning holds whatever the caller's environment
//! says. A test binary of its own: it sets process-wide variables.

use lumen_albireo::{AlbireoConfig, ScalingProfile};
use lumen_core::{EvalSession, SweepRunner};

#[test]
fn evaluation_runs_on_one_worker_from_an_empty_cache() {
    std::env::set_var("LUMEN_SWEEP_THREADS", "8");
    std::env::set_var("LUMEN_EVAL_CACHE", "off");
    std::env::set_var("LUMEN_CACHE_DIR", "does-not-exist-evalcache");

    lumen_perfbench::pin_environment().expect("pinning succeeds");

    assert_eq!(std::env::var("LUMEN_SWEEP_THREADS").as_deref(), Ok("1"));
    assert!(std::env::var_os("LUMEN_EVAL_CACHE").is_none());
    assert!(std::env::var_os("LUMEN_CACHE_DIR").is_none());
    // `dse::sweep` builds its runner with `SweepRunner::new()`.
    assert_eq!(SweepRunner::new().threads(), 1);
    // Sessions get a private, empty, in-memory cache — neither the
    // disabled cache nor the on-disk one the variables asked for.
    let session = EvalSession::new(AlbireoConfig::new(ScalingProfile::Aggressive).build_system());
    let cache = session.cache().expect("caching stays on");
    assert!(cache.is_empty());
    assert!(!std::path::Path::new("does-not-exist-evalcache").exists());
}
