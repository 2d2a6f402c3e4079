//! Batch-1 forwards stay on the calling thread.
//!
//! A GEMM fans out on the shared pool only when its work repays a
//! pool job (`alfi_tensor::gemm::PAR_MIN_MACS` multiply-accumulates).
//! No GEMM of a batch-1 vgg16 ×0.125 forward at 32 px reaches that
//! floor, so the forward runs no pool job even with a second thread to
//! spare, while a GEMM at the floor still fans out. One `#[test]`,
//! because the pool's job counter is process-global.

use alfi_metrics::names;
use alfi_nn::models::{vgg16, ModelConfig};
use alfi_tensor::gemm::PAR_MIN_MACS;
use alfi_tensor::Tensor;

#[test]
fn a_batch_one_vgg16_forward_runs_no_pool_job_and_a_gemm_at_the_floor_fans_out() {
    alfi_metrics::set_global_enabled(true);
    let jobs = || alfi_metrics::global().snapshot().counter(names::POOL_JOBS);
    let cfg = ModelConfig { input_hw: 32, width_mult: 0.125, ..ModelConfig::default() };
    let model = vgg16(&cfg);
    let image = Tensor::from_vec((0..3 * 32 * 32).map(|i| (i % 17) as f32 / 17.0).collect(), &cfg.input_dims(1))
        .unwrap();
    let (m, k, n) = (64, 256, 128);
    assert_eq!(m * k * n, PAR_MIN_MACS);
    let a = Tensor::ones(&[m, k]);
    let b = Tensor::ones(&[k, n]);
    alfi_pool::with_parallelism(2, || {
        let before = jobs();
        model.forward(&image).unwrap();
        assert_eq!(jobs() - before, 0, "a batch-1 vgg16 forward fanned out");

        let wide = alfi_pool::current_parallelism() > 1;
        let before = jobs();
        a.matmul(&b).unwrap();
        assert_eq!(jobs() > before, wide, "a GEMM at the floor fans out exactly when the pool is wider than 1");
    });
}
