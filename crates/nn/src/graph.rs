//! Network graphs with PyTorch-style forward hooks.
//!
//! A [`Network`] is a topologically-ordered DAG of [`Layer`] nodes. After
//! every node's forward computation the registered [`ForwardHook`]s run
//! and may mutate the output tensor *in place* — the exact mechanism
//! PyTorchFI uses for neuron fault injection ("the output values are
//! modified in place", §II). Weight faults bypass hooks and mutate layer
//! parameters directly via [`Network::layer_mut`].
//!
//! Every forward entry point is one [`Pass`] of [`Network::evaluate`],
//! the single node-evaluation loop. A pass can also resume at a later
//! node from an earlier pass's [`Activations`], evaluate nodes with
//! per-call weight rows ([`RowPatch`]) and run a callback after each
//! node — the primitives fault campaigns use to skip the fault-free
//! prefix of a faulty forward without cloning the model or its layers.
//!
//! A node may carry a Ranger/Clipper range guard ([`Clamp`],
//! [`Network::set_guard`]), which every pass applies last, after the
//! node's hooks and after-node step.

use crate::error::NnError;
use crate::layer::{linear_forward, linear_rows, Layer, LayerKind};
use alfi_tensor::conv::conv2d_rows;
use alfi_tensor::{gemm, Shape, Tensor};
use std::sync::Arc;

/// Identifier of a node within a [`Network`] (its topological position).
pub type NodeId = usize;

/// A named node in the network graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable unique name, e.g. `features.conv1`.
    pub name: String,
    /// The operation this node performs.
    pub layer: Layer,
    /// Ids of the producer nodes feeding this node. Empty means the node
    /// consumes the network input.
    pub inputs: Vec<NodeId>,
}

/// Context handed to forward hooks.
#[derive(Debug, Clone)]
pub struct LayerCtx {
    /// Graph node id.
    pub node_id: NodeId,
    /// Node name.
    pub name: String,
    /// Kind of the layer that produced the output.
    pub kind: LayerKind,
}

/// A callback invoked after a node's forward computation.
///
/// Hooks may mutate the output in place (fault injection) or merely
/// observe it (NaN/Inf monitoring, custom alarms). Hooks
/// needing to accumulate state use interior mutability.
pub trait ForwardHook: Send + Sync {
    /// Called with the node context and its freshly computed output.
    fn on_output(&self, ctx: &LayerCtx, output: &mut Tensor);
}

impl<F> ForwardHook for F
where
    F: Fn(&LayerCtx, &mut Tensor) + Send + Sync,
{
    fn on_output(&self, ctx: &LayerCtx, output: &mut Tensor) {
        self(ctx, output)
    }
}

/// Out-of-range handling of a [`Clamp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClampMode {
    /// Ranger: saturate to the violated bound; NaN maps to `lo`.
    Clip,
    /// Clipper: out-of-range (or NaN) values become zero.
    Zero,
}

/// A Ranger/Clipper range guard (activation-range supervision,
/// Geissler et al.): the node state [`Network::set_guard`] sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clamp {
    /// Lower bound of the healthy activation range.
    pub lo: f32,
    /// Upper bound of the healthy activation range.
    pub hi: f32,
    /// Out-of-range handling.
    pub mode: ClampMode,
}

impl Clamp {
    /// The guarded value of `v`: `v` itself inside `[lo, hi]`, else the
    /// violated bound (`Clip`; NaN maps to `lo`) or zero (`Zero`; NaN
    /// too).
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self.mode {
            ClampMode::Clip => {
                if v.is_nan() {
                    self.lo
                } else {
                    v.clamp(self.lo, self.hi)
                }
            }
            ClampMode::Zero => {
                if v.is_nan() || v < self.lo || v > self.hi {
                    0.0
                } else {
                    v
                }
            }
        }
    }

    /// Whether `self` and `other` guard alike bit for bit: the same mode
    /// and bitwise-equal bounds.
    pub(crate) fn bitwise_eq(self, other: Clamp) -> bool {
        self.mode == other.mode
            && self.lo.to_bits() == other.lo.to_bits()
            && self.hi.to_bits() == other.hi.to_bits()
    }
}

/// Handle returned by [`Network::register_hook`], used to remove the hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HookHandle {
    node: NodeId,
    slot: u64,
}

/// Description of a layer eligible for fault injection.
#[derive(Debug, Clone)]
pub struct InjectableLayer {
    /// Graph node id of the layer.
    pub node_id: NodeId,
    /// Node name.
    pub name: String,
    /// Layer kind (conv2d / conv3d / linear).
    pub kind: LayerKind,
    /// Shape of the weight tensor.
    pub weight_shape: Shape,
    /// Shape of the layer output for the reference input shape, if shape
    /// inference has been run (batch dimension included).
    pub output_shape: Option<Shape>,
}

/// Activations a [`Pass`] borrows for the nodes before its start node.
pub trait Prefix {
    /// The activation of node `id`, if this prefix holds it.
    fn activation(&self, id: NodeId) -> Option<&Tensor>;

    /// Node `id`'s own activation in the network the pass runs, if this
    /// prefix holds it: the hook-free output that network's node `id`
    /// computes from the inputs this prefix lends. A row-patched node
    /// whose inputs all come from before the pass's start node copies
    /// it and recomputes only its patched rows. By default, every
    /// activation the prefix holds: right for a hook-free pass of the
    /// same network over the same input.
    fn lends(&self, id: NodeId) -> Option<&Tensor> {
        self.activation(id)
    }
}

/// Corrupted copies of some weight rows of one node, which a [`Pass`]
/// evaluates the node with instead of the node's own rows.
///
/// A row is a leading-axis slice of the weight: an output channel of a
/// `Conv2d` or `Conv3d`, an output feature of a `Linear`. A `Conv2d`
/// or `Linear` node recomputes only the patched rows of its output
/// (its unpatched output borrowed or computed with the node's own
/// weight); any other layer is evaluated as a per-call copy with the
/// rows written in.
#[derive(Debug, Clone, PartialEq)]
pub struct RowPatch {
    node: NodeId,
    rows: Vec<(usize, Vec<f32>)>,
}

impl RowPatch {
    /// A patch of node `node` with no rows yet.
    pub fn new(node: NodeId) -> Self {
        RowPatch { node, rows: Vec::new() }
    }

    /// The patched node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The patched copy of the element at `coords` of `weight` (the
    /// node's weight). Its row is copied from `weight` on first use;
    /// rows keep the order they were first patched in, and a later
    /// write sees every earlier one.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Tensor`] if `coords` lies outside `weight`.
    pub fn element_mut(&mut self, weight: &Tensor, coords: &[usize]) -> Result<&mut f32, NnError> {
        let flat = weight.shape().flat_index(coords)?;
        let len = weight.num_elements() / weight.dims()[0];
        let (row, offset) = (flat / len, flat % len);
        let slot = match self.rows.iter().position(|(r, _)| *r == row) {
            Some(slot) => slot,
            None => {
                self.rows.push((row, weight.data()[row * len..(row + 1) * len].to_vec()));
                self.rows.len() - 1
            }
        };
        Ok(&mut self.rows[slot].1[offset])
    }

    /// Writes the patched rows into `weight`, a copy of the weight
    /// they were taken from.
    fn write_into(&self, weight: &mut Tensor) -> Result<(), NnError> {
        let dims = weight.dims().to_vec();
        let len = weight.num_elements() / dims.first().copied().unwrap_or(1).max(1);
        for (row, values) in &self.rows {
            match weight.data_mut().get_mut(row * len..(row + 1) * len) {
                Some(dst) if dst.len() == values.len() => dst.copy_from_slice(values),
                _ => {
                    return Err(NnError::BadInput {
                        layer: "row patch".into(),
                        reason: format!("weight {dims:?} has no row {row} of {} values", values.len()),
                    })
                }
            }
        }
        Ok(())
    }
}

/// Per-call node callback of a [`Pass`], run after a node's hooks and
/// before its guard.
pub type AfterNode<'a> = &'a mut dyn FnMut(NodeId, &mut Tensor);

/// How one call of [`Network::evaluate`] runs: where it starts, what it
/// borrows, which weight rows it patches and what it runs after each
/// node.
///
/// [`Pass::new`] is the plain forward: every node from node 0 with the
/// registered hooks, stopping at the output node. None of the options
/// changes the network itself.
pub struct Pass<'a> {
    start: NodeId,
    prefix: Option<&'a dyn Prefix>,
    rows: &'a [RowPatch],
    hooks: bool,
    after: Option<AfterNode<'a>>,
    recorder: Option<&'a alfi_trace::Recorder>,
    all_nodes: bool,
}

impl Default for Pass<'_> {
    fn default() -> Self {
        Pass {
            start: 0,
            prefix: None,
            rows: &[],
            hooks: true,
            after: None,
            recorder: None,
            all_nodes: false,
        }
    }
}

impl<'a> Pass<'a> {
    /// The plain forward pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts at node `start` instead of node 0. Every activation a
    /// node at or after `start` consumes from a node before it comes
    /// from `prefix` — e.g. the [`Activations`] of an earlier pass over
    /// the same input, whose nodes before `start` must be bit-identical
    /// to what this pass would compute.
    pub fn resume(mut self, start: NodeId, prefix: &'a dyn Prefix) -> Self {
        self.start = start;
        self.prefix = Some(prefix);
        self
    }

    /// Evaluates each patch's node with the patch's weight rows in
    /// place of its own (the node's guard still applies). A
    /// `Conv2d` or `Linear` node recomputes only those rows of its
    /// output, on the full kernel's per-element chain, over its
    /// unpatched output: borrowed when every input of the node comes
    /// from before the start node and the prefix [lends](Prefix::lends)
    /// the node's own activation, computed otherwise. Any other layer
    /// evaluates as a per-call copy with the rows written in.
    pub fn patched_rows(mut self, patches: &'a [RowPatch]) -> Self {
        self.rows = patches;
        self
    }

    /// Skips the registered hooks, as a forward of a [`Network::clone`]
    /// would.
    pub fn without_hooks(mut self) -> Self {
        self.hooks = false;
        self
    }

    /// Runs `f` on every evaluated node's output after its hooks and
    /// before its guard.
    pub fn after_node(mut self, f: AfterNode<'a>) -> Self {
        self.after = Some(f);
        self
    }

    /// Attributes each evaluated node's time to its layer name on
    /// `recorder`. A disabled recorder reads no clocks.
    pub fn traced(mut self, recorder: &'a alfi_trace::Recorder) -> Self {
        self.recorder = recorder.is_enabled().then_some(recorder);
        self
    }

    /// Evaluates every node instead of stopping at the output node.
    pub fn all_nodes(mut self) -> Self {
        self.all_nodes = true;
        self
    }
}

/// The node activations one [`Network::evaluate`] call produced, plus
/// the borrowed prefix it started from.
pub struct Activations<'a> {
    start: NodeId,
    prefix: Option<&'a dyn Prefix>,
    acts: Vec<Option<Tensor>>,
    output: Option<NodeId>,
}

impl Activations<'_> {
    /// The activation of node `id`: borrowed from the prefix before the
    /// start node, computed from it on. `None` for a node the pass did
    /// not reach.
    pub fn get(&self, id: NodeId) -> Option<&Tensor> {
        if id < self.start {
            self.prefix.and_then(|p| p.activation(id))
        } else {
            self.acts.get(id).and_then(Option::as_ref)
        }
    }

    /// The output node's activation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] if the network has no output
    /// node or the pass did not reach it.
    pub fn output(&self) -> Result<&Tensor, NnError> {
        self.output
            .and_then(|o| self.get(o))
            .ok_or_else(|| NnError::InvalidGraph("output node was not evaluated".into()))
    }

    /// The output node's activation, owned: moved out when this pass
    /// computed it, copied when the prefix lent it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Activations::output`].
    pub fn into_output(mut self) -> Result<Tensor, NnError> {
        match self.output.and_then(|o| self.acts.get_mut(o)).and_then(Option::take) {
            Some(t) => Ok(t),
            None => self.output().cloned(),
        }
    }

    /// The activation of every node up to the last one the pass
    /// evaluated, owned and in node order: moved where this pass
    /// computed it, copied where the prefix lent it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] if the prefix lacks a node
    /// before the start node.
    pub fn into_nodes(self) -> Result<Vec<Tensor>, NnError> {
        let Activations { start, prefix, acts, .. } = self;
        let lent = |id: NodeId| prefix.and_then(|p| p.activation(id)).cloned();
        acts.into_iter()
            .enumerate()
            .map(|(id, t)| {
                if id < start { lent(id) } else { t }
                    .ok_or_else(|| NnError::InvalidGraph(format!("node {id} was not evaluated")))
            })
            .collect()
    }
}

impl Prefix for Activations<'_> {
    fn activation(&self, id: NodeId) -> Option<&Tensor> {
        self.get(id)
    }
}

/// Every node's activation in node order, as [`Network::forward_all`]
/// returns them.
impl Prefix for Vec<Tensor> {
    fn activation(&self, id: NodeId) -> Option<&Tensor> {
        self.get(id)
    }
}

/// A feed-forward network: a topologically ordered DAG of layers with a
/// single input and a designated output node, plus a hook registry.
///
/// # Example
///
/// ```
/// use alfi_nn::{Network, Layer};
/// use alfi_tensor::Tensor;
///
/// let mut net = Network::new("toy");
/// let a = net.push("relu", Layer::Relu, &[]).unwrap();
/// net.set_output(a).unwrap();
/// let y = net.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap()).unwrap();
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// ```
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    output: Option<NodeId>,
    hooks: Vec<Vec<(u64, Arc<dyn ForwardHook>)>>,
    next_hook_slot: u64,
    guards: Vec<Option<Clamp>>,
    packs: Vec<Arc<gemm::PackCache>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("name", &self.name)
            .field("nodes", &self.nodes.len())
            .field("output", &self.output)
            .finish()
    }
}

impl Clone for Network {
    /// Cloning copies all parameters but **not** the registered hooks:
    /// a clone is a fresh, unobserved model, which a caller may change
    /// (train, prune, arm faults on) while the original stays pristine.
    /// The clone shares the original's weight packs until either side
    /// changes a layer.
    fn clone(&self) -> Self {
        Network {
            name: self.name.clone(),
            nodes: self.nodes.clone(),
            output: self.output,
            hooks: vec![Vec::new(); self.nodes.len()],
            next_hook_slot: 0,
            guards: self.guards.clone(),
            packs: self.packs.clone(),
        }
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            output: None,
            hooks: Vec::new(),
            next_hook_slot: 0,
            guards: Vec::new(),
            packs: Vec::new(),
        }
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes in the graph.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Appends a node. `inputs` must reference earlier nodes; an empty
    /// slice wires the node to the network input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] if an input id is not an earlier
    /// node, if the input count does not match the layer arity, or if the
    /// name duplicates an existing node.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        layer: Layer,
        inputs: &[NodeId],
    ) -> Result<NodeId, NnError> {
        let name = name.into();
        let id = self.nodes.len();
        for &i in inputs {
            if i >= id {
                return Err(NnError::InvalidGraph(format!(
                    "node `{name}` references non-earlier input {i}"
                )));
            }
        }
        if !inputs.is_empty() && inputs.len() != layer.arity() {
            return Err(NnError::InvalidGraph(format!(
                "node `{name}` has {} inputs but layer arity is {}",
                inputs.len(),
                layer.arity()
            )));
        }
        if inputs.is_empty() && layer.arity() != 1 {
            return Err(NnError::InvalidGraph(format!(
                "binary node `{name}` cannot consume the raw network input twice"
            )));
        }
        if self.nodes.iter().any(|n| n.name == name) {
            return Err(NnError::InvalidGraph(format!("duplicate node name `{name}`")));
        }
        self.nodes.push(Node { name, layer, inputs: inputs.to_vec() });
        self.hooks.push(Vec::new());
        self.guards.push(None);
        self.packs.push(Arc::default());
        Ok(id)
    }

    /// Convenience: appends a node fed by the previous node (or the
    /// network input if this is the first node).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::push`].
    pub fn push_seq(&mut self, name: impl Into<String>, layer: Layer) -> Result<NodeId, NnError> {
        let prev = self.nodes.len().checked_sub(1);
        match prev {
            Some(p) => self.push(name, layer, &[p]),
            None => self.push(name, layer, &[]),
        }
    }

    /// Designates the graph output node.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id.
    pub fn set_output(&mut self, id: NodeId) -> Result<(), NnError> {
        if id >= self.nodes.len() {
            return Err(NnError::NoSuchNode(id));
        }
        self.output = Some(id);
        Ok(())
    }

    /// The designated output node.
    pub fn output_node(&self) -> Option<NodeId> {
        self.output
    }

    /// Looks up a node id by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Immutable access to a node's layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id.
    pub fn layer(&self, id: NodeId) -> Result<&Layer, NnError> {
        self.nodes.get(id).map(|n| &n.layer).ok_or(NnError::NoSuchNode(id))
    }

    /// Mutable access to a node's layer — used by weight fault injection,
    /// training and pruning. It drops the node's weight pack (a clone
    /// sharing it keeps its own).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id.
    pub fn layer_mut(&mut self, id: NodeId) -> Result<&mut Layer, NnError> {
        let node = self.nodes.get_mut(id).ok_or(NnError::NoSuchNode(id))?;
        self.packs[id] = Arc::default();
        Ok(&mut node.layer)
    }

    /// Registers a forward hook on node `id`. Hooks run in registration
    /// order after the node computes its output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id.
    pub fn register_hook(
        &mut self,
        id: NodeId,
        hook: Arc<dyn ForwardHook>,
    ) -> Result<HookHandle, NnError> {
        if id >= self.nodes.len() {
            return Err(NnError::NoSuchNode(id));
        }
        let slot = self.next_hook_slot;
        self.next_hook_slot += 1;
        self.hooks[id].push((slot, hook));
        Ok(HookHandle { node: id, slot })
    }

    /// Removes a previously registered hook. Removing twice is a no-op.
    pub fn remove_hook(&mut self, handle: HookHandle) {
        if let Some(hooks) = self.hooks.get_mut(handle.node) {
            hooks.retain(|(slot, _)| *slot != handle.slot);
        }
    }

    /// Total number of registered hooks.
    pub fn num_hooks(&self) -> usize {
        self.hooks.iter().map(Vec::len).sum()
    }

    /// Sets (or replaces) the Ranger/Clipper guard of node `id`.
    ///
    /// Every pass applies it to the node's output last: after the layer,
    /// the registered hooks and the pass's after-node step, before any
    /// consumer reads the output. The node's stored activation is the
    /// guarded one. The guard is part of the model: unlike hooks it
    /// survives [`Network::clone`], and it moves no node id.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id.
    pub fn set_guard(&mut self, id: NodeId, guard: Clamp) -> Result<(), NnError> {
        if id >= self.nodes.len() {
            return Err(NnError::NoSuchNode(id));
        }
        self.guards[id] = Some(guard);
        Ok(())
    }

    /// The guard of node `id`, if any.
    pub fn guard(&self, id: NodeId) -> Option<Clamp> {
        self.guards.get(id).copied().flatten()
    }

    /// Total number of guarded nodes.
    pub fn num_guards(&self) -> usize {
        self.guards.iter().filter(|g| g.is_some()).count()
    }

    /// Evaluates node `id` with `layer`: the node's own, or a per-call
    /// copy of a layer that is neither `Conv2d` nor `Linear`. A
    /// `Linear` runs on the node's weight pack, which the blocked
    /// kernel fills on first use.
    fn eval_node(&self, id: NodeId, layer: &Layer, inputs: &[&Tensor]) -> Result<Tensor, NnError> {
        match layer {
            Layer::Linear(l) => linear_forward(inputs[0], l, Some(&self.packs[id])),
            other => other.forward(inputs),
        }
    }

    /// Evaluates node `id` with `patch`'s rows (see
    /// [`Pass::patched_rows`]). `lent` is the node's unpatched output,
    /// if the pass may borrow it: guarded already, which the guard
    /// applied after this leaves as it is. Dispatch is on the layer
    /// variant: a custom layer is opaque whatever kind it registers as.
    fn eval_patched(
        &self,
        id: NodeId,
        layer: &Layer,
        inputs: &[&Tensor],
        patch: &RowPatch,
        lent: Option<&Tensor>,
    ) -> Result<Tensor, NnError> {
        let unpatched = || lent.map_or_else(|| self.eval_node(id, layer, inputs), |t| Ok(t.clone()));
        match layer {
            Layer::Conv2d(c) => {
                let mut out = unpatched()?;
                conv2d_rows(inputs[0], &c.weight, &patch.rows, c.bias.as_ref(), c.cfg, &mut out)?;
                Ok(out)
            }
            Layer::Linear(l) => {
                let mut out = unpatched()?;
                linear_rows(inputs[0], l, &patch.rows, &mut out)?;
                Ok(out)
            }
            other => {
                let mut copy = other.clone();
                let weight = copy.weight_mut().ok_or_else(|| NnError::BadInput {
                    layer: self.nodes[id].name.clone(),
                    reason: "a row patch needs a weight".into(),
                })?;
                patch.write_into(weight)?;
                self.eval_node(id, &copy, inputs)
            }
        }
    }

    /// Runs a forward pass, returning the output of the designated output
    /// node. Hooks run after each node and may mutate its output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] if no output node is set, or any
    /// layer error encountered during evaluation.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        self.evaluate(input, Pass::new())?.into_output()
    }

    /// Runs a forward pass and returns the activations of **all** nodes.
    /// Used by shape inference, activation-range profiling and monitors.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward`].
    pub fn forward_all(&self, input: &Tensor) -> Result<Vec<Tensor>, NnError> {
        self.evaluate(input, Pass::new().all_nodes())?.into_nodes()
    }

    /// The node-evaluation loop behind every forward entry point.
    ///
    /// Per node, in topological order from the pass's start node: the
    /// layer evaluates (with the pass's row patch, if it has one), then
    /// the registered hooks run (unless the pass skips them), then the
    /// pass's after-node callback, then the node's guard. Hooks and the
    /// callback thus see the unguarded output; the stored activation,
    /// which consumers, [`Activations`] and the output read, is the
    /// guarded one. The loop stops at the output node unless the pass
    /// asks for every node.
    /// Nodes before the start node are not evaluated: their activations
    /// come from the pass's prefix, which must hold every one a later
    /// node consumes.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] if no output node is set or a
    /// consumed activation is missing, or any layer error encountered
    /// during evaluation.
    pub fn evaluate<'a>(&self, input: &Tensor, pass: Pass<'a>) -> Result<Activations<'a>, NnError> {
        let Pass { start, prefix, rows, hooks, mut after, recorder, all_nodes } = pass;
        let end = match (all_nodes, self.output) {
            (true, _) => self.nodes.len(),
            (false, Some(out)) => out + 1,
            (false, None) => {
                return Err(NnError::InvalidGraph(format!(
                    "network `{}` has no output node",
                    self.name
                )))
            }
        };
        let mut acts: Vec<Option<Tensor>> = vec![None; end];
        for id in start..end {
            let node = &self.nodes[id];
            let inputs: Vec<&Tensor> = if node.inputs.is_empty() {
                vec![input]
            } else {
                node.inputs
                    .iter()
                    .map(|&i| {
                        let act = if i < start {
                            prefix.and_then(|p| p.activation(i))
                        } else {
                            acts[i].as_ref()
                        };
                        act.ok_or_else(|| {
                            NnError::InvalidGraph(format!("node {i} evaluated out of order"))
                        })
                    })
                    .collect::<Result<_, _>>()?
            };
            let started = recorder.map(|_| std::time::Instant::now());
            let mut out_t = match rows.iter().find(|p| p.node == id) {
                None => self.eval_node(id, &node.layer, &inputs)?,
                Some(patch) => {
                    // A node that reads only borrowed activations (or
                    // the input) may borrow its own unpatched output.
                    let golden_inputs = node.inputs.iter().all(|&i| i < start);
                    let lent = prefix.filter(|_| golden_inputs).and_then(|p| p.lends(id));
                    self.eval_patched(id, &node.layer, &inputs, patch, lent)?
                }
            };
            if let (Some(rec), Some(t0)) = (recorder, started) {
                rec.record_layer_ns(&node.name, t0.elapsed().as_nanos() as u64);
            }
            if hooks && !self.hooks[id].is_empty() {
                let ctx =
                    LayerCtx { node_id: id, name: node.name.clone(), kind: node.layer.kind() };
                for (_, hook) in &self.hooks[id] {
                    hook.on_output(&ctx, &mut out_t);
                }
            }
            if let Some(f) = after.as_mut() {
                f(id, &mut out_t);
            }
            if let Some(guard) = self.guards[id] {
                out_t.map_inplace(|v| guard.apply(v));
            }
            acts[id] = Some(out_t);
        }
        Ok(Activations { start, prefix, acts, output: self.output })
    }

    /// Infers the output shape of every node for the given input shape by
    /// evaluating the graph on a zero tensor — PyTorchALFI's "dummy run"
    /// strategy for bounding neuron fault coordinates.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward`].
    pub fn infer_shapes(&self, input_dims: &[usize]) -> Result<Vec<Shape>, NnError> {
        let zero = Tensor::zeros(input_dims);
        Ok(self.forward_all(&zero)?.into_iter().map(|t| t.shape().clone()).collect())
    }

    /// Enumerates the layers eligible for fault injection, optionally
    /// restricted to specific kinds. If `input_dims` is given, each entry
    /// also carries the layer's inferred output shape (needed to bound
    /// neuron fault coordinates).
    ///
    /// # Errors
    ///
    /// Propagates shape-inference errors when `input_dims` is provided.
    pub fn injectable_layers(
        &self,
        kinds: Option<&[LayerKind]>,
        input_dims: Option<&[usize]>,
    ) -> Result<Vec<InjectableLayer>, NnError> {
        let shapes = match input_dims {
            Some(d) => Some(self.infer_shapes(d)?),
            None => None,
        };
        let mut out = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            let kind = node.layer.kind();
            if !kind.is_injectable() {
                continue;
            }
            if let Some(ks) = kinds {
                if !ks.contains(&kind) {
                    continue;
                }
            }
            let weight_shape =
                node.layer.weight().map(|w| w.shape().clone()).expect("injectable layers have weights");
            out.push(InjectableLayer {
                node_id: id,
                name: node.name.clone(),
                kind,
                weight_shape,
                output_shape: shapes.as_ref().map(|s| s[id].clone()),
            });
        }
        Ok(out)
    }

    /// Total number of weight elements across all injectable layers.
    pub fn num_weights(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| n.layer.weight())
            .map(|w| w.num_elements())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, Linear};
    use alfi_tensor::conv::ConvConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn toy_net() -> Network {
        let mut net = Network::new("toy");
        let conv = Layer::Conv2d(Conv2d {
            weight: Tensor::ones(&[1, 1, 1, 1]),
            bias: None,
            cfg: ConvConfig::default(),
        });
        let c = net.push("conv", conv, &[]).unwrap();
        let r = net.push("relu", Layer::Relu, &[c]).unwrap();
        let f = net.push("flatten", Layer::Flatten, &[r]).unwrap();
        let lin = Layer::Linear(Linear { weight: Tensor::ones(&[2, 4]), bias: None });
        let l = net.push("fc", lin, &[f]).unwrap();
        net.set_output(l).unwrap();
        net
    }

    #[test]
    fn sequential_forward_computes() {
        let net = toy_net();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[4.0, 4.0]);
    }

    #[test]
    fn a_traced_pass_matches_forward_and_times_each_layer() {
        let net = toy_net();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let traced = |rec| net.evaluate(&x, Pass::new().traced(rec)).unwrap().into_output().unwrap();
        let rec = alfi_trace::Recorder::new();
        assert_eq!(traced(&rec).data(), net.forward(&x).unwrap().data());
        let summary = rec.summary();
        for name in ["conv", "relu", "flatten", "fc"] {
            let t = summary.layer_forward.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(t.count, 1);
        }
        // a disabled recorder collects nothing
        let off = alfi_trace::Recorder::disabled();
        traced(&off);
        assert!(off.summary().layer_forward.is_empty());
    }

    fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
        (t.dims().to_vec(), t.data().iter().map(|v| v.to_bits()).collect())
    }

    /// Resuming at every node from a golden pass's activations equals
    /// the plain forward bit for bit — including past the output node,
    /// where the output itself is lent by the prefix.
    fn assert_resume_matches_forward(net: &Network, x: &Tensor) {
        let expect = bits(&net.forward(x).unwrap());
        let golden = net.evaluate(x, Pass::new()).unwrap();
        assert_eq!(bits(golden.output().unwrap()), expect, "{}: golden pass", net.name());
        for start in 0..=net.num_nodes() + 1 {
            let y = net.evaluate(x, Pass::new().resume(start, &golden)).unwrap().into_output();
            assert_eq!(bits(&y.unwrap()), expect, "{}: resumed at node {start}", net.name());
        }
    }

    #[test]
    fn resume_at_every_node_matches_forward_on_the_model_zoo() {
        use crate::models::{resnet50, vgg16, vit_tiny, ModelConfig};
        let cfg =
            ModelConfig { input_hw: 32, width_mult: 0.0625, seed: 5, ..ModelConfig::default() };
        let mut rng = alfi_rng::Rng::from_seed(9);
        let x = Tensor::rand_uniform(&mut rng, &cfg.input_dims(2), -1.0, 1.0);
        let resnet = resnet50(&cfg);
        // The residual `Add` nodes consume two producers, so a resumed
        // pass must borrow two live activations at once.
        assert!(resnet.nodes().iter().any(|n| n.inputs.len() == 2));
        for net in [vgg16(&cfg), resnet, vit_tiny(&cfg)] {
            assert_resume_matches_forward(&net, &x);
        }
    }

    #[test]
    fn resume_without_the_needed_prefix_errors() {
        let net = toy_net();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        // Node 2 consumes node 1, which the prefix does not hold.
        assert!(net.evaluate(&x, Pass::new().resume(2, &NoPrefix)).is_err());
        // Past the output nothing is evaluated, and nothing lends it.
        let acts = net.evaluate(&x, Pass::new().resume(9, &NoPrefix)).unwrap();
        assert!(acts.output().is_err());
        let acts = net.evaluate(&x, Pass::new().resume(4, &NoPrefix).all_nodes()).unwrap();
        assert!(acts.into_nodes().is_err());
    }

    #[test]
    fn into_nodes_of_a_resumed_pass_matches_forward_all() {
        let net = toy_net();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let all = net.forward_all(&x).unwrap();
        let expect: Vec<_> = all.iter().map(bits).collect();
        let golden = net.evaluate(&x, Pass::new()).unwrap();
        for start in 0..=net.num_nodes() {
            // From a golden pass's `Activations` and from a plain list.
            for prefix in [&golden as &dyn Prefix, &all] {
                let pass = Pass::new().resume(start, prefix).all_nodes();
                let nodes = net.evaluate(&x, pass).unwrap().into_nodes().unwrap();
                let got: Vec<_> = nodes.iter().map(bits).collect();
                assert_eq!(got, expect, "resumed at {start}");
            }
        }
    }

    struct NoPrefix;
    impl Prefix for NoPrefix {
        fn activation(&self, _: NodeId) -> Option<&Tensor> {
            None
        }
    }

    #[test]
    fn patched_layers_hooks_and_after_node_run_in_order() {
        let mut net = toy_net();
        let conv = net.node_by_name("conv").unwrap();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        // Hook doubles the conv output; the after-node callback sees the
        // hooked value and then adds one.
        net.register_hook(conv, Arc::new(|_: &LayerCtx, t: &mut Tensor| t.map_inplace(|v| v * 2.0)))
            .unwrap();
        let mut seen = Vec::new();
        let mut after = |id: NodeId, t: &mut Tensor| {
            seen.push((id, t.data()[0]));
            if id == 0 {
                t.map_inplace(|v| v + 1.0);
            }
        };
        let y = net.evaluate(&x, Pass::new().after_node(&mut after)).unwrap();
        let y = y.into_output().unwrap();
        assert_eq!(y.data(), &[12.0, 12.0]); // (1·2 + 1) summed over 4 inputs
        assert_eq!(seen, vec![(0, 2.0), (1, 3.0), (2, 3.0), (3, 12.0)]);
        // A patched conv weight of 3 changes only this call; skipping
        // hooks drops the doubling.
        let mut patch = RowPatch::new(conv);
        *patch.element_mut(net.layer(conv).unwrap().weight().unwrap(), &[0, 0, 0, 0]).unwrap() = 3.0;
        let patches = [patch];
        let pass = Pass::new().patched_rows(&patches).without_hooks();
        let y = net.evaluate(&x, pass).unwrap().into_output().unwrap();
        assert_eq!(y.data(), &[12.0, 12.0]);
        assert_eq!(net.forward(&x).unwrap().data(), &[8.0, 8.0]);
    }

    #[test]
    fn all_nodes_pass_runs_past_the_output() {
        let mut net = toy_net();
        net.set_output(0).unwrap();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let acts = net.evaluate(&x, Pass::new()).unwrap();
        assert!(acts.get(1).is_none(), "a forward stops at the output node");
        assert_eq!(net.forward_all(&x).unwrap().len(), 4);
    }

    #[test]
    fn forward_without_output_node_errors() {
        let mut net = Network::new("n");
        net.push("relu", Layer::Relu, &[]).unwrap();
        assert!(net.forward(&Tensor::zeros(&[1, 1])).is_err());
    }

    #[test]
    fn push_validates_graph_structure() {
        let mut net = Network::new("n");
        assert!(net.push("a", Layer::Relu, &[0]).is_err()); // self/future ref
        let a = net.push("a", Layer::Relu, &[]).unwrap();
        assert!(net.push("a", Layer::Relu, &[a]).is_err()); // duplicate name
        assert!(net.push("add", Layer::Add, &[a]).is_err()); // arity mismatch
        assert!(net.push("add", Layer::Add, &[]).is_err()); // binary from input
        let b = net.push("b", Layer::Relu, &[a]).unwrap();
        assert!(net.push("add", Layer::Add, &[a, b]).is_ok());
    }

    #[test]
    fn residual_add_graph_evaluates() {
        let mut net = Network::new("res");
        let a = net.push("id", Layer::Identity, &[]).unwrap();
        let b = net.push("relu", Layer::Relu, &[a]).unwrap();
        let s = net.push("add", Layer::Add, &[a, b]).unwrap();
        net.set_output(s).unwrap();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap();
        let y = net.forward(&x).unwrap();
        // -1 + relu(-1) = -1; 2 + relu(2) = 4
        assert_eq!(y.data(), &[-1.0, 4.0]);
    }

    #[test]
    fn hooks_run_and_can_mutate_output() {
        let mut net = toy_net();
        let conv_id = net.node_by_name("conv").unwrap();
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = Arc::clone(&calls);
        let hook = move |_ctx: &LayerCtx, out: &mut Tensor| {
            calls2.fetch_add(1, Ordering::SeqCst);
            out.map_inplace(|v| v * 2.0);
        };
        net.register_hook(conv_id, Arc::new(hook)).unwrap();
        let y = net.forward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(y.data(), &[8.0, 8.0]); // doubled conv output
    }

    #[test]
    fn hooks_receive_correct_context() {
        let mut net = toy_net();
        let conv_id = net.node_by_name("conv").unwrap();
        let seen = Arc::new(std::sync::Mutex::new(None));
        let seen2 = Arc::clone(&seen);
        net.register_hook(
            conv_id,
            Arc::new(move |ctx: &LayerCtx, _out: &mut Tensor| {
                *seen2.lock().unwrap() = Some((ctx.node_id, ctx.name.clone(), ctx.kind));
            }),
        )
        .unwrap();
        net.forward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        let got = seen.lock().unwrap().clone().unwrap();
        assert_eq!(got, (conv_id, "conv".to_string(), LayerKind::Conv2d));
    }

    #[test]
    fn remove_hook_stops_invocation() {
        let mut net = toy_net();
        let id = net.node_by_name("conv").unwrap();
        let handle = net
            .register_hook(id, Arc::new(|_: &LayerCtx, out: &mut Tensor| out.map_inplace(|_| 0.0)))
            .unwrap();
        assert_eq!(net.num_hooks(), 1);
        net.remove_hook(handle);
        assert_eq!(net.num_hooks(), 0);
        let y = net.forward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert_eq!(y.data(), &[4.0, 4.0]);
        // removing twice is a no-op
        net.remove_hook(handle);
    }

    #[test]
    fn clone_drops_hooks_but_keeps_weights() {
        let mut net = toy_net();
        let id = net.node_by_name("conv").unwrap();
        net.register_hook(id, Arc::new(|_: &LayerCtx, _: &mut Tensor| {})).unwrap();
        let cloned = net.clone();
        assert_eq!(cloned.num_hooks(), 0);
        assert_eq!(net.num_hooks(), 1);
        assert_eq!(
            cloned.layer(id).unwrap().weight().unwrap().data(),
            net.layer(id).unwrap().weight().unwrap().data()
        );
    }

    #[test]
    fn infer_shapes_reports_every_node() {
        let net = toy_net();
        let shapes = net.infer_shapes(&[1, 1, 2, 2]).unwrap();
        assert_eq!(shapes.len(), 4);
        assert_eq!(shapes[0].dims(), &[1, 1, 2, 2]);
        assert_eq!(shapes[2].dims(), &[1, 4]);
        assert_eq!(shapes[3].dims(), &[1, 2]);
    }

    #[test]
    fn injectable_layers_filters_by_kind() {
        let net = toy_net();
        let all = net.injectable_layers(None, Some(&[1, 1, 2, 2])).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].kind, LayerKind::Conv2d);
        assert_eq!(all[1].kind, LayerKind::Linear);
        assert!(all[0].output_shape.is_some());
        let convs = net.injectable_layers(Some(&[LayerKind::Conv2d]), None).unwrap();
        assert_eq!(convs.len(), 1);
        assert!(convs[0].output_shape.is_none());
    }

    #[test]
    fn num_weights_sums_parameters() {
        let net = toy_net();
        assert_eq!(net.num_weights(), 1 + 8);
    }

    #[test]
    fn weight_mutation_via_layer_mut_changes_output() {
        let mut net = toy_net();
        let id = net.node_by_name("conv").unwrap();
        net.layer_mut(id).unwrap().weight_mut().unwrap().set(&[0, 0, 0, 0], 3.0);
        let y = net.forward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert_eq!(y.data(), &[12.0, 12.0]);
    }

    #[test]
    fn push_seq_chains_nodes() {
        let mut net = Network::new("seq");
        net.push_seq("a", Layer::Relu).unwrap();
        let b = net.push_seq("b", Layer::Relu).unwrap();
        net.set_output(b).unwrap();
        assert_eq!(net.nodes()[1].inputs, vec![0]);
    }

    #[test]
    fn clamps_clip_or_zero_out_of_range_values() {
        let clip = Clamp { lo: -1.0, hi: 2.0, mode: ClampMode::Clip };
        let zero = Clamp { mode: ClampMode::Zero, ..clip };
        let x = [-5.0, 0.5, 99.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        assert_eq!(x.map(|v| clip.apply(v)), [-1.0, 0.5, 2.0, -1.0, 2.0, -1.0]);
        assert_eq!(x.map(|v| zero.apply(v)), [0.0, 0.5, 0.0, 0.0, 0.0, 0.0]);
        // Both bounds lie inside the range.
        assert_eq!([-1.0, 2.0].map(|v| clip.apply(v)), [-1.0, 2.0]);
        assert_eq!([-1.0, 2.0].map(|v| zero.apply(v)), [-1.0, 2.0]);
        assert!(clip.bitwise_eq(clip) && !clip.bitwise_eq(zero));
        assert!(!Clamp { lo: 0.0, ..clip }.bitwise_eq(Clamp { lo: -0.0, ..clip }));
    }

    /// Hooks and the after-node step see the unguarded conv output; the
    /// stored activation, its consumers and the output see it guarded.
    #[test]
    fn a_guard_applies_after_hooks_and_the_after_node_step() {
        let mut net = toy_net();
        let conv = net.node_by_name("conv").unwrap();
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[1, 1, 2, 2]).unwrap();
        assert!(net.set_guard(99, Clamp { lo: 0.0, hi: 0.0, mode: ClampMode::Clip }).is_err());
        net.set_guard(conv, Clamp { lo: -1.0, hi: 2.0, mode: ClampMode::Clip }).unwrap();
        assert_eq!((net.num_nodes(), net.num_guards()), (4, 1));
        assert_eq!(net.clone().guard(conv), net.guard(conv), "clones keep guards");
        net.register_hook(conv, Arc::new(|_: &LayerCtx, t: &mut Tensor| t.map_inplace(|v| v * 2.0)))
            .unwrap();
        let mut seen = Vec::new();
        let mut after = |id: NodeId, t: &mut Tensor| {
            if id == conv {
                seen = t.data().to_vec();
                t.data_mut()[0] = f32::NAN;
            }
        };
        let pass = Pass::new().after_node(&mut after).all_nodes();
        let nodes = net.evaluate(&x, pass).unwrap().into_nodes().unwrap();
        assert_eq!(seen, [2.0, -4.0, 6.0, -8.0], "the hooked, unguarded output");
        assert_eq!(nodes[conv].data(), &[-1.0, -1.0, 2.0, -1.0]);
        assert_eq!(nodes[conv + 1].data(), &[0.0, 0.0, 2.0, 0.0]);
        assert_eq!(nodes[3].data(), &[2.0, 2.0], "the output");
    }
}
