//! Run-time monitors: NaN/Inf detection.
//!
//! PyTorchALFI's alficore offers "monitoring capabilities (enabling the
//! detection of NaN or Inf values and facilitating the integration of
//! custom monitoring)" (§IV-B). Monitors are ordinary forward hooks that
//! observe — never mutate — layer outputs; attach them to every node of a
//! network with [`attach_monitor`].

use alfi_nn::{ForwardHook, HookHandle, LayerCtx, Network, NnError};
use alfi_tensor::Tensor;
use std::sync::Mutex;
use std::sync::Arc;

/// Per-layer NaN/Inf counts observed by a [`NanInfMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NanInfCounts {
    /// NaN elements observed.
    pub nan: usize,
    /// Infinite elements observed.
    pub inf: usize,
}

/// Monitor counting NaN/Inf occurrences per layer — the raw signal behind
/// the DUE (detected uncorrectable error) KPI.
#[derive(Debug, Default)]
pub struct NanInfMonitor {
    counts: Mutex<Vec<(String, NanInfCounts)>>,
}

impl NanInfMonitor {
    /// Creates an idle monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total counts across all layers since the last reset.
    pub fn totals(&self) -> NanInfCounts {
        let guard = self.counts.lock().unwrap();
        let mut total = NanInfCounts::default();
        for (_, c) in guard.iter() {
            total.nan += c.nan;
            total.inf += c.inf;
        }
        total
    }

    /// Per-layer counts `(layer name, counts)` since the last reset,
    /// omitting clean layers.
    pub fn per_layer(&self) -> Vec<(String, NanInfCounts)> {
        self.counts.lock().unwrap().clone()
    }

    /// Whether any non-finite value was observed.
    pub fn any_detected(&self) -> bool {
        let t = self.totals();
        t.nan > 0 || t.inf > 0
    }

    /// Clears all recorded counts.
    pub fn reset(&self) {
        self.counts.lock().unwrap().clear();
    }
}

impl ForwardHook for NanInfMonitor {
    fn on_output(&self, ctx: &LayerCtx, output: &mut Tensor) {
        let nan = output.count_nan();
        let inf = output.count_inf();
        if nan > 0 || inf > 0 {
            self.counts.lock().unwrap().push((ctx.name.clone(), NanInfCounts { nan, inf }));
        }
    }
}

/// Attaches a monitor hook to every node of a network, returning the
/// handles (use them with [`Network::remove_hook`] to detach).
///
/// # Errors
///
/// Propagates hook-registration errors (cannot occur for valid node ids).
pub fn attach_monitor(
    net: &mut Network,
    monitor: Arc<dyn ForwardHook>,
) -> Result<Vec<HookHandle>, NnError> {
    let n = net.num_nodes();
    let mut handles = Vec::with_capacity(n);
    for id in 0..n {
        handles.push(net.register_hook(id, Arc::clone(&monitor))?);
    }
    Ok(handles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_nn::{Layer, Linear};
    use alfi_tensor::Tensor;

    fn net_with_inf() -> Network {
        // Linear with a huge weight so ones-input overflows to inf after
        // squaring via two layers.
        let mut net = Network::new("inf");
        let l1 = Layer::Linear(Linear {
            weight: Tensor::full(&[4, 4], 1.0e30),
            bias: None,
        });
        let a = net.push("fc1", l1, &[]).unwrap();
        let l2 = Layer::Linear(Linear { weight: Tensor::full(&[2, 4], 1.0e30), bias: None });
        let b = net.push("fc2", l2, &[a]).unwrap();
        net.set_output(b).unwrap();
        net
    }

    #[test]
    fn nan_inf_monitor_detects_overflow() {
        let mut net = net_with_inf();
        let monitor = Arc::new(NanInfMonitor::new());
        attach_monitor(&mut net, Arc::<NanInfMonitor>::clone(&monitor) as _).unwrap();
        net.forward(&Tensor::ones(&[1, 4])).unwrap();
        assert!(monitor.any_detected());
        let totals = monitor.totals();
        assert!(totals.inf > 0);
        let layers = monitor.per_layer();
        assert!(layers.iter().any(|(name, _)| name == "fc2"));
        monitor.reset();
        assert!(!monitor.any_detected());
    }

    #[test]
    fn clean_network_reports_nothing() {
        let mut net = Network::new("clean");
        let a = net.push("relu", Layer::Relu, &[]).unwrap();
        net.set_output(a).unwrap();
        let monitor = Arc::new(NanInfMonitor::new());
        attach_monitor(&mut net, Arc::<NanInfMonitor>::clone(&monitor) as _).unwrap();
        net.forward(&Tensor::ones(&[1, 3])).unwrap();
        assert!(!monitor.any_detected());
        assert!(monitor.per_layer().is_empty());
    }
}
