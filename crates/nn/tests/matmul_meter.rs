//! Every GEMM outside a convolution counts `2·m·k·n` FLOPs on the
//! matmul meter: a `Linear` forward once, a weight-row recompute only
//! over the output columns it computes, and attention once per product
//! per (batch item, head).
//!
//! One test function, because it pins the process-global kernel path
//! and reads the process-global meters.

use alfi_metrics::names;
use alfi_nn::{Layer, Linear, Network, Pass, RowPatch};
use alfi_rng::Rng;
use alfi_tensor::gemm::{self, KernelPath, NR};
use alfi_tensor::Tensor;

fn matmul_flops() -> u64 {
    alfi_metrics::global()
        .snapshot()
        .counter(names::TENSOR_MATMUL_FLOPS)
}

/// The matmul FLOPs `f` counts.
fn counted<R>(f: impl FnOnce() -> R) -> u64 {
    let before = matmul_flops();
    f();
    matmul_flops() - before
}

#[test]
fn linear_and_attention_gemms_count_on_the_matmul_meter() {
    alfi_metrics::set_global_enabled(true);
    let mut rng = Rng::from_seed(3);
    // A linear over [batch, tokens, in] tokens: the token axis folds
    // into the GEMM rows.
    let (batch, tokens, in_f, out_f) = (2usize, 5usize, 24usize, 2 * NR + 3);
    let m = batch * tokens;
    let weight = Tensor::rand_uniform(&mut rng, &[out_f, in_f], -0.5, 0.5);
    let bias = Some(Tensor::rand_uniform(&mut rng, &[out_f], -0.5, 0.5));
    let mut net = Network::new("fc");
    let fc = net
        .push_seq(
            "fc",
            Layer::Linear(Linear {
                weight: weight.clone(),
                bias,
            }),
        )
        .unwrap();
    net.set_output(fc).unwrap();
    let x = Tensor::rand_uniform(&mut rng, &[batch, tokens, in_f], -1.0, 1.0);

    // Attention over [batch, tokens, d] with `heads` heads of `hd`
    // features: scores Q·Kᵀ (t × hd × t) and context (t × t × hd).
    let (heads, hd) = (3usize, 4usize);
    let qkv: Vec<Tensor> = (0..3)
        .map(|_| Tensor::rand_uniform(&mut rng, &[batch, tokens, heads * hd], -1.0, 1.0))
        .collect();
    let attention = Layer::Attention { heads };

    let prev = gemm::kernel_override();
    for (path, recomputed) in [(KernelPath::Reference, 2), (KernelPath::Blocked, 2 * NR)] {
        gemm::set_kernel_override(Some(path));
        assert_eq!(
            counted(|| net.forward(&x).unwrap()),
            (2 * m * in_f * out_f) as u64,
            "{path}: forward"
        );

        // Output features 1 and NR + 1 recomputed over the golden
        // output: those two columns on the reference kernel, their
        // whole NR-wide panels on the blocked kernel.
        let golden = net.forward_all(&x).unwrap();
        let mut patch = RowPatch::new(fc);
        *patch.element_mut(&weight, &[1, 0]).unwrap() = 9.0;
        *patch.element_mut(&weight, &[NR + 1, 3]).unwrap() = -9.0;
        let patches = [patch];
        let pass = Pass::new().resume(fc, &golden).patched_rows(&patches);
        let flops = counted(|| net.evaluate(&x, pass).unwrap().into_output().unwrap());
        assert_eq!(
            flops,
            (2 * m * in_f * recomputed) as u64,
            "{path}: row recompute"
        );

        let inputs: Vec<&Tensor> = qkv.iter().collect();
        let flops = counted(|| attention.forward(&inputs).unwrap());
        let per_head = 2 * tokens * hd * tokens + 2 * tokens * tokens * hd;
        assert_eq!(
            flops,
            (batch * heads * per_head) as u64,
            "{path}: attention"
        );
    }
    gemm::set_kernel_override(prev);
}
