//! Campaign-cache hygiene gate (`xtask check` step `cache-hygiene`).
//!
//! Scans the standard campaign-cache directory (`target/campaign-cache/`
//! or `$RELIEF_CACHE_DIR`) for entries written under a different schema
//! version or code-version salt, and for `<key>.tmp<pid>` files left by
//! a writer killed before its rename. Neither can ever hit again — the
//! salt is part of every key — so they silently bloat the store and, in
//! the worst case, mask a forgotten salt bump. The gate **rejects** them:
//!
//! - no stale entries (or no cache directory at all): exit 0;
//! - stale entries present: list them and exit 1. Re-run with `--purge`
//!   to delete exactly the listed files and exit 0.
//!
//! Entries under the *current* schema + salt are never touched.

use relief_bench::cache::CacheConfig;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut purge = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--purge" => purge = true,
            other => {
                eprintln!("cache_hygiene: unknown argument '{other}'");
                eprintln!("usage: cache_hygiene [--purge]");
                return ExitCode::from(2);
            }
        }
    }
    let cache = CacheConfig::standard();
    let stale = cache.stale_entries();
    if stale.is_empty() {
        println!("cache-hygiene OK: no stale entries in {}", cache.dir.display());
        return ExitCode::SUCCESS;
    }
    println!(
        "cache-hygiene: {} stale entr{} (wrong schema or salt, or orphaned temp file) in {}:",
        stale.len(),
        if stale.len() == 1 { "y" } else { "ies" },
        cache.dir.display()
    );
    for name in &stale {
        println!("  {name}");
    }
    if purge {
        let mut failed = false;
        for name in &stale {
            let path = cache.dir.join(name);
            if let Err(e) = std::fs::remove_file(&path) {
                eprintln!("cache_hygiene: cannot remove {}: {e}", path.display());
                failed = true;
            }
        }
        if failed {
            return ExitCode::FAILURE;
        }
        println!("cache-hygiene: purged {} stale entr{}", stale.len(), if stale.len() == 1 { "y" } else { "ies" });
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "cache_hygiene: stale entries rejected; re-run with --purge \
         (cargo run -p relief-bench --bin cache_hygiene -- --purge) to delete them"
    );
    ExitCode::FAILURE
}
