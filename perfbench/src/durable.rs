//! Durability from flushed bytes only: outside the timed path, at a
//! reduced size, each workload's write stream runs on crash-logging
//! pools. The image at the end keeps only what was flushed
//! (`Eviction::None`), is reopened the way a restart would, and every
//! acknowledged write must be readable.

use std::sync::Arc;
use std::time::Duration;

use fastfair::{FastFairTree, TreeOptions};
use pmem::crash::Eviction;
use pmem::{Pool, PoolConfig};
use pmindex::PmIndex;

use crate::churn::{diff, Churn};
use crate::stack::{chooser_of, diff_store, drive, stream_of, Model, Stack};
use crate::util::{rng, Checker};
use crate::{Params, Scale};

/// Seed salt that keeps the durability inputs apart from the timed ones.
const SALT: u64 = 0xd0_ab1e;

/// The image a crash right now would leave, flushed lines only.
fn flushed_image(pool: &Pool) -> Vec<u8> {
    let log = pool.crash_log().expect("pool logs its stores");
    pool.crash_image(log.len(), Eviction::None)
}

fn reopen(image: &[u8]) -> Arc<Pool> {
    Arc::new(Pool::from_image(image, PoolConfig::new().size(image.len())).expect("reopen a pool"))
}

/// `tree_churn`'s mix on a crash-logging tree, then `FastFairTree::open`
/// on the flushed image.
pub fn churn(p: &Params, chk: &mut Checker) {
    let mut env = Churn::new(
        p.seed ^ SALT,
        p.scale.durable_keys,
        PoolConfig::new().crash_log(true),
    );
    let mut rng = rng(p.seed ^ SALT, 1);
    let mut failed = 0;
    for _ in 0..p.scale.durable_ops {
        env.step(&mut rng, chk, &mut failed);
    }
    let image = flushed_image(&env.pool);
    let tree = FastFairTree::open(reopen(&image), env.tree.meta_offset(), TreeOptions::new())
        .expect("open the tree after a crash");
    let want = env.sorted();
    let lost = want
        .iter()
        .filter(|&&(k, v)| tree.get(k) != Some(v))
        .count();
    let back = env
        .removed
        .iter()
        .filter(|&&k| tree.get(k).is_some())
        .count();
    chk.check(failed == 0 && lost == 0 && back == 0, || {
        format!("after a crash: {lost} acknowledged writes lost, {back} removed keys back, {failed} ops failed")
    });
    diff(&tree, &want, chk, "tree after a crash");
}

/// A service workload's write stream on crash-logging pools, then the
/// catalog warm boot (which runs `TxnEngine::recover`) on the flushed
/// images, reading every key back through the service.
pub fn service(p: &Params, chk: &mut Checker) {
    let scale = Scale {
        service_keys: p.scale.durable_keys,
        scan_keys: p.scale.durable_keys,
        ..p.scale
    };
    let (n, chooser) = chooser_of(p.workload, &scale);
    let mut model = Model::new(p.seed ^ SALT, 1, n);
    let st = Stack::create(&model.sorted(), PoolConfig::new().crash_log(true));
    let mut rng = rng(p.seed ^ SALT, 2);
    let ph = drive(
        &st.service.handle(),
        &mut model,
        &chooser,
        &mut rng,
        stream_of(p.workload),
        Duration::from_secs(60),
        p.scale.durable_ops as u64,
        None,
        chk,
    );
    // Every reply is in and the worker is idle: cut here.
    let images: Vec<Vec<u8>> = st.pools.iter().map(|pool| flushed_image(pool)).collect();
    drop(st);
    let st = Stack::boot(images.iter().map(|img| reopen(img)).collect());
    let client = st.service.handle();
    let lost = model
        .keys
        .iter()
        .zip(&model.vals)
        .filter(|&(&k, &v)| client.get(k) != Ok(Some(v)))
        .count();
    chk.check(ph.failed == 0 && lost == 0, || {
        format!(
            "after a crash: {lost} acknowledged writes lost, {} requests failed",
            ph.failed
        )
    });
    diff_store(&st.store, &model.sorted(), chk, "store after a crash");
}
