//! The fault-injection engine: per-call fault plans and the
//! faulty-model iterator.
//!
//! [`FaultPlan`] is the injection mechanism. It resolves fault records
//! against pristine networks and corrupts one forward pass or one
//! detection, leaving the networks untouched: weight faults run on
//! corrupted copies of the faulted weight rows, neuron faults corrupt a
//! node's output after its layer. Campaigns build one per fault scope,
//! and each [`FaultyModel`] of the [`Ptfiwrap`] iterator holds one.
//!
//! [`arm_faults`] is the clone-and-arm reference the plans are tested
//! against, in PyTorchFI's form (§II): it writes weight faults into a
//! network's parameters, reverted bit-exactly on disarm, and registers
//! neuron faults as forward hooks that corrupt the node's output in
//! place. The ad-hoc baseline ([`crate::baseline`]) injects through it
//! too.

use crate::error::CoreError;
use crate::fault::{AppliedFault, FaultRecord, FaultValue};
use crate::matrix::{resolve_targets, FaultMatrix, LayerTarget};
use alfi_nn::detection::{Detection, Detector};
use alfi_nn::{ForwardHook, HookHandle, Layer, LayerCtx, Network, NodeId, Pass, Prefix, RowPatch};
use alfi_scenario::{FaultDuration, InjectionTarget, Scenario};
use alfi_tensor::bits::{flip_bit_traced, set_bit, FlipDirection};
use alfi_tensor::Tensor;
use std::sync::{Arc, Mutex, MutexGuard};

/// Applies one fault value to a scalar, returning the corrupted value and
/// the flip direction when applicable.
pub fn corrupt_value(original: f32, value: FaultValue) -> (f32, Option<FlipDirection>) {
    match value {
        FaultValue::BitFlip(pos) => {
            let (v, d) = flip_bit_traced(original, pos);
            (v, Some(d))
        }
        FaultValue::StuckAt { pos, high } => (set_bit(original, pos, high), None),
        FaultValue::Replace(v) => (v, None),
        FaultValue::QuantStep { bit, bits, amax } => {
            // Symmetric signed quantization: q = round(v / scale) in
            // [-qmax, qmax], flip `bit` in the `bits`-wide two's
            // complement of q, dequantize. The clamp keeps a corrupt
            // matrix file from shifting out of range.
            let bits = bits.clamp(2, 31) as u32;
            let bit = (bit as u32).min(bits - 1);
            let qmax = (1i32 << (bits - 1)) - 1;
            let scale = amax / qmax as f32;
            let q = (original / scale).round().clamp(-(qmax as f32), qmax as f32) as i32;
            let mask = (1u32 << bits) - 1;
            let stored = (q as u32) & mask;
            let direction = if stored >> bit & 1 == 1 {
                FlipDirection::OneToZero
            } else {
                FlipDirection::ZeroToOne
            };
            let flipped = stored ^ (1u32 << bit);
            let sign = 1u32 << (bits - 1);
            let q2 = if flipped & sign != 0 { (flipped | !mask) as i32 } else { flipped as i32 };
            (q2 as f32 * scale, Some(direction))
        }
    }
}

/// Converts one applied fault into its structured trace event. The bit
/// position comes straight from the fault value (bit flips and stuck-at
/// faults are bit-addressed; value replacements are not).
pub fn injection_event(image_id: u64, applied: &AppliedFault) -> alfi_trace::InjectionEvent {
    alfi_trace::InjectionEvent {
        image_id,
        layer: applied.record.layer,
        bit: match applied.record.value {
            FaultValue::BitFlip(pos) => Some(pos),
            FaultValue::StuckAt { pos, .. } => Some(pos),
            FaultValue::Replace(_) => None,
            FaultValue::QuantStep { bit, .. } => Some(bit),
        },
        original: applied.original,
        corrupted: applied.corrupted,
    }
}

/// Computes the flat index of a neuron fault within an output tensor,
/// or `None` if the coordinates fall outside the actual shape (e.g. a
/// partial final batch) — such faults are skipped and counted.
pub fn neuron_flat_index(record: &FaultRecord, dims: &[usize]) -> Option<usize> {
    let coords: Vec<usize> = match dims.len() {
        2 => vec![record.batch, record.width],
        // Rank-3 token tensors `[batch, token, feature]` (transformer
        // blocks): height addresses the token, width the feature.
        3 => vec![record.batch, record.height, record.width],
        4 => vec![record.batch, record.channel, record.height, record.width],
        5 => vec![
            record.batch,
            record.channel,
            record.depth.unwrap_or(0),
            record.height,
            record.width,
        ],
        _ => return None,
    };
    let mut flat = 0usize;
    for (c, d) in coords.iter().zip(dims.iter()) {
        if c >= d {
            return None;
        }
        flat = flat * d + c;
    }
    Some(flat)
}

/// The reference's hook applying one node's neuron faults, logging
/// every application.
#[derive(Debug)]
struct NeuronFaultHook {
    faults: Vec<FaultRecord>,
    log: Mutex<Vec<AppliedFault>>,
}

impl ForwardHook for NeuronFaultHook {
    fn on_output(&self, _ctx: &LayerCtx, output: &mut Tensor) {
        corrupt_neurons(&self.faults, output, &mut self.log.lock().unwrap());
    }
}

/// Applies neuron faults to one node's output in record order, logging
/// every application; returns how many were skipped because their
/// coordinates fall outside the output's shape.
fn corrupt_neurons(
    records: &[FaultRecord],
    output: &mut Tensor,
    log: &mut Vec<AppliedFault>,
) -> usize {
    let dims = output.dims().to_vec();
    let mut skipped = 0;
    for record in records {
        match neuron_flat_index(record, &dims) {
            Some(flat) => {
                let data = output.data_mut();
                let original = data[flat];
                let (corrupted, direction) = corrupt_value(original, record.value);
                data[flat] = corrupted;
                log.push(AppliedFault { record: *record, original, corrupted, direction });
            }
            None => skipped += 1,
        }
    }
    skipped
}

/// Computes the index of a weight fault within a weight tensor.
fn weight_index(record: &FaultRecord, dims: &[usize]) -> Result<Vec<usize>, CoreError> {
    let coords: Vec<usize> = match dims.len() {
        2 => vec![record.channel, record.width],
        4 => vec![record.channel, record.channel_in, record.height, record.width],
        5 => vec![
            record.channel,
            record.channel_in,
            record.depth.unwrap_or(0),
            record.height,
            record.width,
        ],
        _ => {
            return Err(CoreError::FaultOutOfBounds {
                detail: format!("weight rank {} unsupported", dims.len()),
            })
        }
    };
    for (c, d) in coords.iter().zip(dims.iter()) {
        if c >= d {
            return Err(CoreError::FaultOutOfBounds {
                detail: format!("weight coords {coords:?} vs dims {dims:?}"),
            });
        }
    }
    Ok(coords)
}

/// Faults armed on a set of networks by the [`arm_faults`] reference;
/// dropping *without* calling [`ArmedFaults::disarm`] leaves them
/// active.
#[derive(Debug)]
pub struct ArmedFaults {
    /// (net_idx, node_id, weight coords, original value) for exact revert.
    weight_undo: Vec<(usize, NodeId, Vec<usize>, f32)>,
    weight_log: Vec<AppliedFault>,
    hooks: Vec<(usize, HookHandle, Arc<NeuronFaultHook>)>,
}

impl ArmedFaults {
    /// Applied weight faults (available immediately) plus all neuron
    /// fault applications logged since the last call (drained from the
    /// hooks).
    pub fn collect_applied(&self) -> Vec<AppliedFault> {
        let mut out = self.weight_log.clone();
        for (_, _, hook) in &self.hooks {
            out.append(&mut hook.log.lock().expect("a hook panicked while logging"));
        }
        out
    }

    /// Reverts weight faults bit-exactly and removes neuron hooks.
    ///
    /// `networks` must be the same networks (same order) the faults were
    /// armed on.
    pub fn disarm(self, networks: &mut [&mut Network]) {
        // Revert in reverse order so overlapping faults restore correctly.
        for (net_idx, node_id, coords, original) in self.weight_undo.into_iter().rev() {
            if let Ok(layer) = networks[net_idx].layer_mut(node_id) {
                if let Some(w) = layer.weight_mut() {
                    w.set(&coords, original);
                }
            }
        }
        for (net_idx, handle, _) in self.hooks {
            networks[net_idx].remove_hook(handle);
        }
    }
}

/// Arms a set of fault records on networks, given the resolved targets
/// the records' layer indices refer to: the clone-and-arm reference
/// that [`FaultPlan`] is tested against. Arm a clone, not a shared
/// model.
///
/// Weight faults are written into the parameters immediately; neuron
/// faults register hooks that fire on every subsequent forward pass
/// until disarmed.
///
/// # Errors
///
/// Returns [`CoreError::FaultOutOfBounds`] if a weight fault addresses
/// coordinates outside its layer's weight tensor, if a record's layer
/// index is out of range for `targets`, or if its target names a
/// network `networks` does not have.
pub fn arm_faults(
    networks: &mut [&mut Network],
    targets: &[LayerTarget],
    faults: &[FaultRecord],
    target_kind: InjectionTarget,
) -> Result<ArmedFaults, CoreError> {
    let mut armed = ArmedFaults { weight_undo: Vec::new(), weight_log: Vec::new(), hooks: Vec::new() };
    match target_kind {
        InjectionTarget::Weights => {
            for record in faults {
                let t = target_of(targets, record, networks.len())?;
                let coords = weight_index(record, &t.weight_dims)?;
                let layer = networks[t.net_idx].layer_mut(t.node_id)?;
                let applied = corrupt_weight(layer, t.node_id, &coords, record)?;
                armed.weight_undo.push((t.net_idx, t.node_id, coords, applied.original));
                armed.weight_log.push(applied);
            }
        }
        InjectionTarget::Neurons => {
            for ((net_idx, node_id), records) in neurons_by_node(targets, faults, networks.len())? {
                let hook = Arc::new(NeuronFaultHook { faults: records, log: Mutex::default() });
                let handle = networks[net_idx]
                    .register_hook(node_id, Arc::<NeuronFaultHook>::clone(&hook))?;
                armed.hooks.push((net_idx, handle, hook));
            }
        }
    }
    Ok(armed)
}

/// The resolved target a record's layer index refers to, checked to
/// lie on one of the `networks` networks being injected.
fn target_of<'t>(
    targets: &'t [LayerTarget],
    record: &FaultRecord,
    networks: usize,
) -> Result<&'t LayerTarget, CoreError> {
    let t = targets.get(record.layer).ok_or_else(|| CoreError::FaultOutOfBounds {
        detail: format!("layer index {} out of range", record.layer),
    })?;
    if t.net_idx >= networks {
        return Err(CoreError::FaultOutOfBounds {
            detail: format!("layer {} is on network {} of {networks}", record.layer, t.net_idx),
        });
    }
    Ok(t)
}

/// Corrupts the weight at `coords` of `layer` (node `node_id`) with the
/// record's fault value and returns the log entry.
fn corrupt_weight(
    layer: &mut Layer,
    node_id: NodeId,
    coords: &[usize],
    record: &FaultRecord,
) -> Result<AppliedFault, CoreError> {
    let w = layer.weight_mut().ok_or_else(|| CoreError::FaultOutOfBounds {
        detail: format!("node {node_id} has no weights"),
    })?;
    let original = w.get(coords);
    let (corrupted, direction) = corrupt_value(original, record.value);
    w.set(coords, corrupted);
    Ok(AppliedFault { record: *record, original, corrupted, direction })
}

/// Neuron faults of one `(net, node)`, in record order.
type NodeFaults = ((usize, NodeId), Vec<FaultRecord>);

/// Groups neuron faults by `(net, node)` in first-appearance order, each
/// group in record order — one hook (or one plan entry) per node.
fn neurons_by_node(
    targets: &[LayerTarget],
    faults: &[FaultRecord],
    networks: usize,
) -> Result<Vec<NodeFaults>, CoreError> {
    let mut by_node: Vec<NodeFaults> = Vec::new();
    for record in faults {
        let t = target_of(targets, record, networks)?;
        let key = (t.net_idx, t.node_id);
        match by_node.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(*record),
            None => by_node.push((key, vec![*record])),
        }
    }
    Ok(by_node)
}

/// The faults of one scope as a per-call plan over pristine networks:
/// the records [`arm_faults`] would arm, resolved by the same rules
/// across the same network slice, without touching the networks.
///
/// Weight faults become corrupted copies of only the faulted weight
/// rows ([`RowPatch`]; a row is an output channel of a convolution or
/// an output feature of a linear layer), never copies of whole layers.
/// Faults apply to the rows in record order, so a second fault on the
/// same element sees the first one's value. A pass then recomputes
/// only those rows of a `Conv2d` or `Linear` node's output (see
/// [`Pass::patched_rows`]). Neuron faults stay per-`(net, node)` record
/// groups that each pass applies after the node's observer. The
/// applied-fault log comes out in [`arm_faults`] order: weight faults
/// in record order across networks, then neuron faults grouped by
/// `(net, node)` in first-appearance order, each group in record order.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Corrupted weight rows, per network.
    rows: Vec<Vec<RowPatch>>,
    weight_log: Vec<AppliedFault>,
    neurons: Vec<NodeFaults>,
}

impl FaultPlan {
    /// Resolves `faults` against `networks`, whose injectable layers
    /// `targets` lists (as [`resolve_targets`] numbers them).
    ///
    /// # Errors
    ///
    /// The [`arm_faults`] errors.
    pub fn new(
        networks: &[&Network],
        targets: &[LayerTarget],
        faults: &[FaultRecord],
        target_kind: InjectionTarget,
    ) -> Result<Self, CoreError> {
        let mut plan = FaultPlan {
            rows: vec![Vec::new(); networks.len()],
            weight_log: Vec::new(),
            neurons: Vec::new(),
        };
        match target_kind {
            InjectionTarget::Weights => {
                for record in faults {
                    let t = target_of(targets, record, networks.len())?;
                    let coords = weight_index(record, &t.weight_dims)?;
                    let layer = networks[t.net_idx].layer(t.node_id)?;
                    let weight = layer.weight().ok_or_else(|| CoreError::FaultOutOfBounds {
                        detail: format!("node {} has no weights", t.node_id),
                    })?;
                    let patches = &mut plan.rows[t.net_idx];
                    let slot = match patches.iter().position(|p| p.node() == t.node_id) {
                        Some(slot) => slot,
                        None => {
                            patches.push(RowPatch::new(t.node_id));
                            patches.len() - 1
                        }
                    };
                    let element = patches[slot].element_mut(weight, &coords)?;
                    let original = *element;
                    let (corrupted, direction) = corrupt_value(original, record.value);
                    *element = corrupted;
                    let applied = AppliedFault { record: *record, original, corrupted, direction };
                    plan.weight_log.push(applied);
                }
            }
            InjectionTarget::Neurons => {
                plan.neurons = neurons_by_node(targets, faults, networks.len())?;
            }
        }
        Ok(plan)
    }

    /// The earliest node the plan corrupts in network `net`, or `None`
    /// when it leaves `net` untouched: every node before it computes
    /// the fault-free activation. A classifier is network 0, the one
    /// [`FaultPlan::forward`] runs.
    pub fn first_node(&self, net: usize) -> Option<NodeId> {
        let weights = self.rows_on(net).iter().map(RowPatch::node);
        let neurons = self.neurons.iter().filter(|((n, _), _)| *n == net);
        weights.chain(neurons.map(|((_, id), _)| *id)).min()
    }

    /// Runs the faulty forward of network 0 (`net`) from node `start`,
    /// borrowing the activations before it from `prefix`, and returns
    /// the output and the applied-fault log. Nodes evaluate as in
    /// [`FaultPlan::detect`]. A faulted `Conv2d` or `Linear` node whose
    /// inputs all come from before `start` also borrows its unpatched
    /// output from `prefix` (see [`Prefix::lends`]), so `prefix` must
    /// be hook-free: the golden pass of a model without hooks, a
    /// [`alfi_nn::NodeMap`] view of it, or an empty list.
    ///
    /// # Errors
    ///
    /// Propagates network evaluation errors.
    pub fn forward(
        &self,
        net: &Network,
        input: &Tensor,
        (start, prefix): (NodeId, &dyn Prefix),
        recorder: &alfi_trace::Recorder,
        observe: &mut dyn FnMut(NodeId, &Tensor),
    ) -> Result<(Tensor, Vec<AppliedFault>), CoreError> {
        self.forward_counting(net, input, (start, prefix), recorder, observe, &mut 0)
    }

    /// [`FaultPlan::forward`], adding to `skipped` the neuron faults
    /// whose coordinates miss their node's output (a batch smaller than
    /// the one the faults were drawn for).
    fn forward_counting(
        &self,
        net: &Network,
        input: &Tensor,
        (start, prefix): (NodeId, &dyn Prefix),
        recorder: &alfi_trace::Recorder,
        observe: &mut dyn FnMut(NodeId, &Tensor),
        skipped: &mut usize,
    ) -> Result<(Tensor, Vec<AppliedFault>), CoreError> {
        let mut logs = self.empty_logs();
        let output = {
            let mut after = self.after_node(0, &mut logs, skipped, observe);
            let pass = Pass::new()
                .resume(start, prefix)
                .patched_rows(self.rows_on(0))
                .without_hooks()
                .after_node(&mut after)
                .traced(recorder);
            net.evaluate(input, pass)?.into_output()?
        };
        Ok((output, self.applied(logs)))
    }

    /// Runs `det`'s faulty detection of `images` and returns the
    /// detections and the applied-fault log of all its network calls.
    ///
    /// `golden` is the golden pass over the same images, one entry per
    /// network call in call order: the network index and the
    /// activations of all its nodes, computed without hooks (empty when
    /// there is none to reuse). A call stays on the golden path while
    /// every earlier call of this pass did, and while its network
    /// index matches the golden call's. On that path its input is
    /// bitwise the golden one (see [`Detector::detect_with`]), so:
    ///
    /// - on a network the plan leaves untouched, the call returns the
    ///   golden activations, and the next call stays on the path;
    /// - on a touched network, it resumes at
    ///   [`FaultPlan::first_node`], borrowing the golden activations
    ///   before it, and leaves the path.
    ///
    /// Every later call, and every call once the sequence disagrees
    /// with `golden`, evaluates its network from node 0. `observe`
    /// sees every node of every call: borrowed golden nodes first, then
    /// each evaluated node after its layer (with its patched weight
    /// rows) and before its neuron faults and its guard. Borrowed
    /// golden nodes are as stored, i.e. after their guards.
    /// Registered hooks do not run, as on an armed clone. Each evaluated node's time
    /// goes to `recorder` under its layer name. `det` must expose the
    /// networks the plan was made for.
    ///
    /// # Errors
    ///
    /// Propagates network evaluation and decoding errors.
    pub fn detect<D: Detector + ?Sized>(
        &self,
        det: &D,
        images: &Tensor,
        golden: &[(usize, Vec<Tensor>)],
        recorder: &alfi_trace::Recorder,
        observe: &mut dyn FnMut(NodeId, &Tensor),
    ) -> Result<(Vec<Vec<Detection>>, Vec<AppliedFault>), CoreError> {
        let mut logs = self.empty_logs();
        // Detection rows carry no skip count.
        let mut skipped = 0;
        let mut golden_calls = golden.iter();
        let mut golden_path = true;
        let dets = det.detect_with(images, &mut |i, net, x| {
            let golden_call = golden_calls
                .next()
                .filter(|(g, acts)| golden_path && *g == i && acts.len() == net.num_nodes());
            let first = self.first_node(i);
            // Only a call that returns the golden activations keeps the
            // next call on the golden path.
            golden_path = golden_call.is_some() && first.is_none();
            let start = golden_call.map_or(0, |(_, acts)| first.unwrap_or(acts.len()));
            if let Some((_, acts)) = golden_call {
                for (id, t) in acts.iter().enumerate().take(start) {
                    observe(id, t);
                }
            }
            let mut after = self.after_node(i, &mut logs, &mut skipped, observe);
            let mut pass = Pass::new()
                .patched_rows(self.rows_on(i))
                .without_hooks()
                .after_node(&mut after)
                .traced(recorder)
                .all_nodes();
            if let Some((_, acts)) = golden_call {
                pass = pass.resume(start, acts);
            }
            net.evaluate(x, pass)?.into_nodes()
        })?;
        Ok((dets, self.applied(logs)))
    }

    /// The weight row patches of network `net`.
    fn rows_on(&self, net: usize) -> &[RowPatch] {
        self.rows.get(net).map_or(&[], Vec::as_slice)
    }

    /// One empty application log per neuron group.
    fn empty_logs(&self) -> Vec<Vec<AppliedFault>> {
        vec![Vec::new(); self.neurons.len()]
    }

    /// The after-node step of a pass over network `net`: `observe`,
    /// then the node's neuron faults, logged per group into `logs`, the
    /// ones that miss the output counted into `skipped`.
    fn after_node<'s>(
        &'s self,
        net: usize,
        logs: &'s mut [Vec<AppliedFault>],
        skipped: &'s mut usize,
        observe: &'s mut dyn FnMut(NodeId, &Tensor),
    ) -> impl FnMut(NodeId, &mut Tensor) + 's {
        move |id, out| {
            observe(id, out);
            for (((n, node), records), log) in self.neurons.iter().zip(logs.iter_mut()) {
                if (*n, *node) == (net, id) {
                    *skipped += corrupt_neurons(records, out, log);
                }
            }
        }
    }

    /// The applied-fault log in [`arm_faults`] order.
    fn applied(&self, logs: Vec<Vec<AppliedFault>>) -> Vec<AppliedFault> {
        let mut applied = self.weight_log.clone();
        applied.extend(logs.into_iter().flatten());
        applied
    }
}

/// A faulty model instance produced by the iterator: the wrapper's
/// pristine model, shared and never cloned, and a [`FaultPlan`] of the
/// instance's faults. Each forward runs the plan over the pristine
/// model, so "synchronized inference ... of separate DNN instances"
/// (fault-free vs faulty) is a matter of calling both.
#[derive(Debug)]
pub struct FaultyModel {
    model: Arc<Network>,
    plan: FaultPlan,
    /// The neuron corruptions of every forward so far, and the neuron
    /// faults those forwards skipped.
    neurons: Mutex<(Vec<AppliedFault>, usize)>,
    /// The faults this instance carries.
    pub faults: Vec<FaultRecord>,
}

impl FaultyModel {
    /// Runs the faulty model: [`FaultPlan::forward`] from node 0. The
    /// model's registered hooks do not run.
    ///
    /// # Errors
    ///
    /// Propagates network evaluation errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, CoreError> {
        self.forward_observed(input, &mut |_, _| {})
    }

    /// Runs the faulty model like [`FaultyModel::forward`] and calls
    /// `observe` on every evaluated node's output, after the node's
    /// layer (with its corrupted weight rows) and before the node's
    /// neuron faults and its guard: the place of a monitor.
    ///
    /// # Errors
    ///
    /// Propagates network evaluation errors.
    pub fn forward_observed(
        &self,
        input: &Tensor,
        observe: &mut dyn FnMut(NodeId, &Tensor),
    ) -> Result<Tensor, CoreError> {
        let off = alfi_trace::Recorder::disabled();
        let mut skipped = 0;
        let (output, applied) = self.plan.forward_counting(
            &self.model,
            input,
            (0, &Vec::<Tensor>::new()),
            &off,
            observe,
            &mut skipped,
        )?;
        let mut neurons = self.neurons();
        // Each pass logs the plan's weight corruptions first.
        neurons.0.extend_from_slice(&applied[self.plan.weight_log.len()..]);
        neurons.1 += skipped;
        Ok(output)
    }

    /// The pristine model, which every instance of a wrapper shares
    /// with it (e.g. for node names).
    pub fn model(&self) -> &Network {
        &self.model
    }

    /// Applied-fault log: the weight corruptions, then every neuron
    /// corruption of every forward so far, forward by forward.
    pub fn applied_faults(&self) -> Vec<AppliedFault> {
        let mut applied = self.plan.weight_log.clone();
        applied.extend_from_slice(&self.neurons().0);
        applied
    }

    /// Neuron faults skipped because their coordinates miss the output
    /// shape, summed over every forward so far.
    pub fn skipped_faults(&self) -> usize {
        self.neurons().1
    }

    fn neurons(&self) -> MutexGuard<'_, (Vec<AppliedFault>, usize)> {
        self.neurons.lock().expect("a forward panicked while logging neuron faults")
    }
}

/// The `ptfiwrap` equivalent: owns the pristine model, the scenario and
/// the pre-generated fault matrix, and hands out faulty model instances
/// (paper Listing 1: `wrapper.get_fimodel_iter()` /
/// `next(fault_iter)`).
///
/// # Example
///
/// ```
/// use alfi_core::Ptfiwrap;
/// use alfi_nn::models::{alexnet, ModelConfig};
/// use alfi_scenario::Scenario;
///
/// let cfg = ModelConfig { input_hw: 32, width_mult: 0.0625, ..ModelConfig::default() };
/// let model = alexnet(&cfg);
/// let mut scenario = Scenario::default();
/// scenario.dataset_size = 4;
/// let mut wrapper = Ptfiwrap::new(&model, scenario, &cfg.input_dims(1))?;
/// let faulty = wrapper.next_faulty_model()?;
/// assert_eq!(faulty.faults.len(), 1);
/// # Ok::<(), alfi_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct Ptfiwrap {
    model: Arc<Network>,
    scenario: Scenario,
    input_dims: Vec<usize>,
    targets: Vec<LayerTarget>,
    matrix: FaultMatrix,
    cursor: usize,
    /// Accumulated fault records for permanent-fault runs.
    permanent_accum: Vec<FaultRecord>,
}

impl Ptfiwrap {
    /// Creates a wrapper around `model`, resolving the scenario's layer
    /// filter and pre-generating the full fault matrix.
    ///
    /// `input_dims` is the reference input shape (batch included) used
    /// for neuron-coordinate bounds.
    ///
    /// # Errors
    ///
    /// Returns scenario/model resolution errors.
    pub fn new(model: &Network, scenario: Scenario, input_dims: &[usize]) -> Result<Self, CoreError> {
        let targets = resolve_targets(&[model], &scenario, &[Some(input_dims.to_vec())])?;
        let matrix = FaultMatrix::generate(&scenario, &targets)?;
        Ptfiwrap::with_fault_matrix(model, scenario, input_dims, matrix)
    }

    /// Creates a wrapper replaying a previously persisted fault matrix
    /// instead of generating a new one — the paper's `fault_file`
    /// parameter ("the identical set of faults can be utilized across
    /// various experiments").
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix's injection target disagrees with
    /// the scenario, or on resolution failure.
    pub fn with_fault_matrix(
        model: &Network,
        scenario: Scenario,
        input_dims: &[usize],
        matrix: FaultMatrix,
    ) -> Result<Self, CoreError> {
        matrix.validate_replay(&scenario)?;
        let targets = resolve_targets(&[model], &scenario, &[Some(input_dims.to_vec())])?;
        Ok(Ptfiwrap {
            model: Arc::new(model.clone()),
            scenario,
            input_dims: input_dims.to_vec(),
            targets,
            matrix,
            cursor: 0,
            permanent_accum: Vec::new(),
        })
    }

    /// Creates a wrapper from the conventional `scenarios/default.yml`
    /// file (the paper's Listing-1 contract: "the code expects the file
    /// `default.yml` inside folder `scenarios`"), resolved relative to
    /// the current working directory.
    ///
    /// # Errors
    ///
    /// Returns scenario-file and resolution errors.
    pub fn from_default_scenario(model: &Network, input_dims: &[usize]) -> Result<Self, CoreError> {
        let scenario = Scenario::load("scenarios/default.yml")?;
        Ptfiwrap::new(model, scenario, input_dims)
    }

    /// The current scenario (the paper's `wrapper.get_scenario()`).
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Replaces the scenario, re-resolving targets, regenerating the
    /// fault matrix and resetting the cursor (the paper's
    /// `wrapper.set_scenario()`, used for layer sweeps and other
    /// iterative experiments without manual reconfiguration).
    ///
    /// # Errors
    ///
    /// Returns resolution/generation errors; on error the old state is
    /// retained.
    pub fn set_scenario(&mut self, scenario: Scenario) -> Result<(), CoreError> {
        let targets = resolve_targets(&[&*self.model], &scenario, &[Some(self.input_dims.clone())])?;
        let matrix = FaultMatrix::generate(&scenario, &targets)?;
        self.scenario = scenario;
        self.targets = targets;
        self.matrix = matrix;
        self.cursor = 0;
        self.permanent_accum.clear();
        Ok(())
    }

    /// The pristine model.
    pub fn model(&self) -> &Network {
        &self.model
    }

    /// The resolved injection targets.
    pub fn targets(&self) -> &[LayerTarget] {
        &self.targets
    }

    /// The pre-generated fault matrix.
    pub fn fault_matrix(&self) -> &FaultMatrix {
        &self.matrix
    }

    /// Remaining fault slots.
    pub fn remaining_slots(&self) -> usize {
        self.matrix.num_slots().saturating_sub(self.cursor)
    }

    /// Produces the next faulty model instance: the pristine model with
    /// a [`FaultPlan`] of the next fault slot. For permanent-fault
    /// scenarios faults accumulate across calls.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MatrixExhausted`] when all slots are used,
    /// or the [`FaultPlan::new`] errors.
    pub fn next_faulty_model(&mut self) -> Result<FaultyModel, CoreError> {
        if self.cursor >= self.matrix.num_slots() {
            return Err(CoreError::MatrixExhausted);
        }
        let slot: Vec<FaultRecord> = self.matrix.faults_for_slot(self.cursor).to_vec();
        self.cursor += 1;
        let active: Vec<FaultRecord> = match self.scenario.fault_duration {
            FaultDuration::Transient => slot.clone(),
            FaultDuration::Permanent => {
                self.permanent_accum.extend_from_slice(&slot);
                self.permanent_accum.clone()
            }
        };
        let kind = self.scenario.injection_target;
        let plan = FaultPlan::new(&[&*self.model], &self.targets, &active, kind)?;
        let model = Arc::clone(&self.model);
        Ok(FaultyModel { model, plan, neurons: Mutex::default(), faults: active })
    }

    /// An iterator over faulty models (the paper's `get_fimodel_iter`).
    /// Yields until the fault matrix is exhausted; fault-plan errors end
    /// the iteration (inspect [`Ptfiwrap::next_faulty_model`] directly for
    /// error details).
    pub fn fimodel_iter(&mut self) -> FimodelIter<'_> {
        FimodelIter { wrapper: self }
    }
}

/// Iterator over faulty model instances. See [`Ptfiwrap::fimodel_iter`].
#[derive(Debug)]
pub struct FimodelIter<'a> {
    wrapper: &'a mut Ptfiwrap,
}

impl Iterator for FimodelIter<'_> {
    type Item = FaultyModel;

    fn next(&mut self) -> Option<FaultyModel> {
        self.wrapper.next_faulty_model().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_nn::models::{alexnet, ModelConfig};
    use alfi_scenario::{FaultCount, FaultMode};

    fn model_cfg() -> ModelConfig {
        ModelConfig { input_hw: 32, width_mult: 0.0625, ..ModelConfig::default() }
    }

    fn scenario() -> Scenario {
        Scenario { dataset_size: 6, batch_size: 1, ..Scenario::default() }
    }

    #[test]
    fn corrupt_value_covers_all_modes() {
        let (v, d) = corrupt_value(1.0, FaultValue::BitFlip(31));
        assert_eq!(v, -1.0);
        assert_eq!(d, Some(FlipDirection::ZeroToOne));
        let (v, d) = corrupt_value(1.0, FaultValue::StuckAt { pos: 23, high: true });
        assert_eq!(v, 1.0); // bit already set
        assert_eq!(d, None);
        let (v, _) = corrupt_value(1.0, FaultValue::Replace(9.0));
        assert_eq!(v, 9.0);
    }

    #[test]
    fn quant_step_flips_in_integer_domain() {
        // 8-bit symmetric, amax = 127 -> scale = 1.0, so q == round(v).
        let q8 = |v: f32, bit: u8| corrupt_value(v, FaultValue::QuantStep { bit, bits: 8, amax: 127.0 });
        // 5 = 0b0000_0101; flipping bit 1 sets it -> 7.
        let (v, d) = q8(5.0, 1);
        assert_eq!(v, 7.0);
        assert_eq!(d, Some(FlipDirection::ZeroToOne));
        // Flipping bit 0 of 5 clears it -> 4.
        let (v, d) = q8(5.0, 0);
        assert_eq!(v, 4.0);
        assert_eq!(d, Some(FlipDirection::OneToZero));
        // Sign bit: 5 | 0x80 = 133 -> -123 in 8-bit two's complement.
        let (v, _) = q8(5.0, 7);
        assert_eq!(v, -123.0);
        // Negative input: -3 = 0b1111_1101; flipping bit 1 -> -1.
        let (v, _) = q8(-3.0, 1);
        assert_eq!(v, -1.0);
        // Values beyond amax clamp to qmax before the flip.
        let (v, _) = q8(1.0e6, 0);
        assert_eq!(v, 126.0);
        // The corruption never leaves the finite fp32 range.
        let (v, _) = corrupt_value(0.5, FaultValue::QuantStep { bit: 15, bits: 16, amax: 2.0 });
        assert!(v.is_finite());
    }

    #[test]
    fn neuron_flat_index_covers_rank3_token_tensors() {
        let r = FaultRecord {
            batch: 1,
            layer: 0,
            channel: 0,
            channel_in: 0,
            depth: None,
            height: 2, // token
            width: 3,  // feature
            value: FaultValue::BitFlip(0),
        };
        let dims = [2usize, 4, 5];
        assert_eq!(neuron_flat_index(&r, &dims), Some((4 + 2) * 5 + 3));
        let mut oob = r;
        oob.height = 4;
        assert_eq!(neuron_flat_index(&oob, &dims), None);
    }

    #[test]
    fn neuron_flat_index_matches_row_major() {
        let r = FaultRecord {
            batch: 1,
            layer: 0,
            channel: 2,
            channel_in: 0,
            depth: None,
            height: 3,
            width: 4,
            value: FaultValue::BitFlip(0),
        };
        let dims = [2usize, 3, 5, 6];
        let flat = neuron_flat_index(&r, &dims).unwrap();
        assert_eq!(flat, ((3 + 2) * 5 + 3) * 6 + 4);
        // out of bounds -> None
        let mut r2 = r;
        r2.batch = 2;
        assert_eq!(neuron_flat_index(&r2, &dims), None);
    }

    #[test]
    fn weight_fault_changes_output_and_disarm_restores_bit_exactly() {
        let model = alexnet(&model_cfg());
        let mut s = scenario();
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let mut wrapper = Ptfiwrap::new(&model, s, &model_cfg().input_dims(1)).unwrap();
        let x = Tensor::ones(&model_cfg().input_dims(1));
        let clean = model.forward(&x).unwrap();
        let faulty = wrapper.next_faulty_model().unwrap();
        let out = faulty.forward(&x).unwrap();
        // The corrupted weight is logged with original != corrupted.
        let log = faulty.applied_faults();
        assert_eq!(log.len(), 1);
        assert_ne!(log[0].original.to_bits(), log[0].corrupted.to_bits());
        // Original model must be untouched.
        assert_eq!(model.forward(&x).unwrap().data(), clean.data());
        // (out may or may not differ depending on masking; just ensure it ran)
        assert_eq!(out.dims(), clean.dims());
    }

    #[test]
    fn neuron_fault_corrupts_only_during_forward() {
        let model = alexnet(&model_cfg());
        let mut s = scenario();
        s.injection_target = InjectionTarget::Neurons;
        s.fault_mode = FaultMode::RandomValue { min: 1000.0, max: 1000.1 };
        let mut wrapper = Ptfiwrap::new(&model, s, &model_cfg().input_dims(1)).unwrap();
        let faulty = wrapper.next_faulty_model().unwrap();
        assert!(faulty.applied_faults().is_empty(), "no application before forward");
        let x = Tensor::ones(&model_cfg().input_dims(1));
        faulty.forward(&x).unwrap();
        let log = faulty.applied_faults();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].corrupted, log[0].record_replace_value());
    }

    impl AppliedFault {
        fn record_replace_value(&self) -> f32 {
            match self.record.value {
                FaultValue::Replace(v) => v,
                _ => panic!("expected replace"),
            }
        }
    }

    #[test]
    fn iterator_yields_all_slots_then_stops() {
        let model = alexnet(&model_cfg());
        let mut s = scenario();
        s.dataset_size = 4;
        s.faults_per_image = FaultCount::Fixed(2);
        let mut wrapper = Ptfiwrap::new(&model, s, &model_cfg().input_dims(1)).unwrap();
        assert_eq!(wrapper.remaining_slots(), 4);
        let count = wrapper.fimodel_iter().count();
        assert_eq!(count, 4);
        assert!(matches!(wrapper.next_faulty_model(), Err(CoreError::MatrixExhausted)));
    }

    #[test]
    fn each_slot_gets_distinct_faults() {
        let model = alexnet(&model_cfg());
        let mut wrapper = Ptfiwrap::new(&model, scenario(), &model_cfg().input_dims(1)).unwrap();
        let a = wrapper.next_faulty_model().unwrap().faults;
        let b = wrapper.next_faulty_model().unwrap().faults;
        assert_ne!(a, b);
    }

    #[test]
    fn permanent_faults_accumulate() {
        let model = alexnet(&model_cfg());
        let mut s = scenario();
        s.fault_duration = FaultDuration::Permanent;
        s.injection_target = InjectionTarget::Weights;
        let mut wrapper = Ptfiwrap::new(&model, s, &model_cfg().input_dims(1)).unwrap();
        assert_eq!(wrapper.next_faulty_model().unwrap().faults.len(), 1);
        assert_eq!(wrapper.next_faulty_model().unwrap().faults.len(), 2);
        assert_eq!(wrapper.next_faulty_model().unwrap().faults.len(), 3);
    }

    #[test]
    fn set_scenario_regenerates_and_resets() {
        let model = alexnet(&model_cfg());
        let mut wrapper = Ptfiwrap::new(&model, scenario(), &model_cfg().input_dims(1)).unwrap();
        wrapper.next_faulty_model().unwrap();
        let old_matrix = wrapper.fault_matrix().clone();
        let mut s2 = scenario();
        s2.seed = 99;
        wrapper.set_scenario(s2).unwrap();
        assert_eq!(wrapper.remaining_slots(), wrapper.fault_matrix().num_slots());
        assert_ne!(&old_matrix, wrapper.fault_matrix());
    }

    #[test]
    fn replayed_matrix_reproduces_identical_corruptions() {
        let model = alexnet(&model_cfg());
        let mut s = scenario();
        s.injection_target = InjectionTarget::Weights;
        let mut w1 = Ptfiwrap::new(&model, s.clone(), &model_cfg().input_dims(1)).unwrap();
        let matrix = w1.fault_matrix().clone();
        let f1 = w1.next_faulty_model().unwrap();
        let log1 = f1.applied_faults();

        let mut w2 =
            Ptfiwrap::with_fault_matrix(&model, s, &model_cfg().input_dims(1), matrix).unwrap();
        let f2 = w2.next_faulty_model().unwrap();
        let log2 = f2.applied_faults();
        assert_eq!(log1, log2);
    }

    #[test]
    fn with_fault_matrix_rejects_target_mismatch() {
        let model = alexnet(&model_cfg());
        let mut s = scenario();
        s.injection_target = InjectionTarget::Weights;
        let w = Ptfiwrap::new(&model, s.clone(), &model_cfg().input_dims(1)).unwrap();
        let matrix = w.fault_matrix().clone();
        s.injection_target = InjectionTarget::Neurons;
        assert!(Ptfiwrap::with_fault_matrix(&model, s, &model_cfg().input_dims(1), matrix).is_err());
    }

    #[test]
    fn arm_disarm_round_trip_is_bit_exact() {
        let mut model = alexnet(&model_cfg());
        let snapshot: Vec<Vec<f32>> = model
            .nodes()
            .iter()
            .filter_map(|n| n.layer.weight().map(|w| w.data().to_vec()))
            .collect();
        let mut s = scenario();
        s.injection_target = InjectionTarget::Weights;
        s.dataset_size = 1;
        s.faults_per_image = FaultCount::Fixed(8);
        let targets =
            resolve_targets(&[&model], &s, &[Some(model_cfg().input_dims(1))]).unwrap();
        let matrix = FaultMatrix::generate(&s, &targets).unwrap();
        let armed = {
            let mut nets = [&mut model];
            arm_faults(&mut nets, &targets, &matrix.records, InjectionTarget::Weights).unwrap()
        };
        assert_eq!(armed.collect_applied().len(), 8);
        {
            let mut nets = [&mut model];
            armed.disarm(&mut nets);
        }
        let restored: Vec<Vec<f32>> = model
            .nodes()
            .iter()
            .filter_map(|n| n.layer.weight().map(|w| w.data().to_vec()))
            .collect();
        for (a, b) in snapshot.iter().zip(restored.iter()) {
            let ab: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
            assert_eq!(ab, bb);
        }
    }

    #[test]
    fn fault_plan_matches_an_armed_clone_without_touching_the_model() {
        let model = alexnet(&model_cfg());
        let weights = |net: &Network| {
            let w: Vec<_> = net.nodes().iter().map(|n| n.layer.weight().cloned()).collect();
            format!("{w:?}")
        };
        let before = weights(&model);
        let x = Tensor::ones(&model_cfg().input_dims(2));
        let golden = model.evaluate(&x, Pass::new()).unwrap();
        for target in [InjectionTarget::Weights, InjectionTarget::Neurons] {
            let mut s = scenario();
            s.injection_target = target;
            s.batch_size = 4; // some neuron coordinates miss the batch of 2
            s.faults_per_image = FaultCount::Fixed(6);
            let dims = [Some(model_cfg().input_dims(4))];
            let targets = resolve_targets(&[&model], &s, &dims).unwrap();
            let matrix = FaultMatrix::generate(&s, &targets).unwrap();
            let mut faults = matrix.faults_for_slot(0).to_vec();
            faults.push(faults[0]); // the same element twice
            let mut armed_net = model.clone();
            let armed = arm_faults(&mut [&mut armed_net], &targets, &faults, target).unwrap();
            let expect = armed_net.forward(&x).unwrap();
            let expect_applied = format!("{:?}", armed.collect_applied());
            let plan = FaultPlan::new(&[&model], &targets, &faults, target).unwrap();
            let start = plan.first_node(0).unwrap();
            let off = alfi_trace::Recorder::disabled();
            for from in [0, start] {
                let (got, applied) =
                    plan.forward(&model, &x, (from, &golden), &off, &mut |_, _| {}).unwrap();
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expect), "{target:?} from node {from}");
                assert_eq!(format!("{applied:?}"), expect_applied);
            }
        }
        assert!(before == weights(&model), "a fault plan changed the model");
    }

    /// `FaultPlan::detect` reuses a golden call only where it matches
    /// the detector's call: the same network index and one activation
    /// per node. Otherwise it evaluates from node 0, and every form
    /// gives the detections and log of a pass without a golden record.
    #[test]
    fn fault_plan_detect_reuses_only_golden_calls_that_match() {
        use alfi_nn::detection::{DetectorConfig, FrcnnTwoStage};
        let cfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let det = FrcnnTwoStage::new(&cfg);
        let ds = alfi_datasets::DetectionDataset::new(1, cfg.num_classes, 3, 32, 5);
        let x = Tensor::stack(&[ds.get(0).image]).unwrap();
        let mut golden = Vec::new();
        det.detect_with(&x, &mut |i, net, x| {
            let acts = net.forward_all(x)?;
            golden.push((i, acts.clone()));
            Ok(acts)
        })
        .unwrap();
        assert_eq!(golden.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [0, 1]);
        // Weight faults in `head.fc1`, the head's first node.
        let s = Scenario {
            injection_target: InjectionTarget::Weights,
            layer_range: Some((6, 6)),
            faults_per_image: FaultCount::Fixed(2),
            ..scenario()
        };
        let nets = det.networks();
        let targets = resolve_targets(&nets, &s, &[Some(cfg.input_dims(1)), None]).unwrap();
        let faults = FaultMatrix::generate(&s, &targets).unwrap().faults_for_slot(0).to_vec();
        let plan = FaultPlan::new(&nets, &targets, &faults, s.injection_target).unwrap();
        assert_eq!((plan.first_node(0), plan.first_node(1)), (None, Some(0)));
        let (backbone, head) = (nets[0].num_nodes() as u64, nets[1].num_nodes() as u64);
        // Detections and log as text, and the number of nodes evaluated.
        let detect = |golden: &[(usize, Vec<Tensor>)]| {
            let rec = alfi_trace::Recorder::new();
            let (dets, applied) = plan.detect(&det, &x, golden, &rec, &mut |_, _| {}).unwrap();
            let evaluated: u64 = rec.summary().layer_forward.values().map(|t| t.count).sum();
            (format!("{dets:?} {applied:?}"), evaluated)
        };
        let (expect, evaluated) = detect(&[]);
        assert_eq!(evaluated, backbone + head);
        let swapped = vec![(1, golden[0].1.clone()), (0, golden[1].1.clone())];
        let mut short = golden.clone();
        short[0].1.pop();
        for (record, evaluated) in [
            (&golden, head),
            (&golden[..1].to_vec(), head),
            (&swapped, backbone + head),
            (&short, backbone + head),
        ] {
            assert_eq!(detect(record), (expect.clone(), evaluated), "{:?}", record.len());
        }
    }

    #[test]
    fn fault_plan_rejects_what_arm_faults_rejects() {
        let model = alexnet(&model_cfg());
        let dims = [Some(model_cfg().input_dims(1))];
        let targets = resolve_targets(&[&model], &scenario(), &dims).unwrap();
        let record = FaultMatrix::generate(&scenario(), &targets).unwrap().records[0];
        // A layer index past the target list, and a target on a second
        // network the one-network slice does not have.
        let mut past_the_end = record;
        past_the_end.layer = targets.len();
        let mut elsewhere = targets.clone();
        elsewhere[record.layer].net_idx = 1;
        for (targets, record) in [(&targets, past_the_end), (&elsewhere, record)] {
            for target in [InjectionTarget::Weights, InjectionTarget::Neurons] {
                let plan = FaultPlan::new(&[&model], targets, &[record], target).unwrap_err();
                let mut copy = model.clone();
                let armed = arm_faults(&mut [&mut copy], targets, &[record], target).unwrap_err();
                for err in [plan, armed] {
                    assert!(matches!(err, CoreError::FaultOutOfBounds { .. }), "{err:?}");
                }
            }
        }
    }

    #[test]
    fn neuron_faults_skip_out_of_bounds_batches() {
        let model = alexnet(&model_cfg());
        let mut s = scenario();
        s.injection_target = InjectionTarget::Neurons;
        s.batch_size = 4; // faults may target batch index up to 3
        let mut wrapper = Ptfiwrap::new(&model, s, &model_cfg().input_dims(4)).unwrap();
        // Find a slot whose fault targets batch > 0, then run batch of 1.
        loop {
            let faulty = match wrapper.next_faulty_model() {
                Ok(f) => f,
                Err(_) => break,
            };
            if faulty.faults[0].batch > 0 {
                faulty.forward(&Tensor::ones(&model_cfg().input_dims(1))).unwrap();
                assert_eq!(faulty.skipped_faults(), 1);
                assert!(faulty.applied_faults().is_empty());
                return;
            }
        }
        panic!("no fault with batch > 0 generated");
    }
}
