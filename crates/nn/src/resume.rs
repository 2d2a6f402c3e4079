//! Activation reuse between a derived network and the plain network it
//! was built from.
//!
//! A hardened copy (`alfi-mitigation`'s `harden`) computes the plain
//! model's activations wherever the two graphs agree and no range guard
//! trips. [`NodeMap`] records that agreement once
//! per network pair, so a pass over the derived network can resume from
//! the plain network's activations ([`Pass::resume`]) instead of
//! recomputing them.
//!
//! [`Pass::resume`]: crate::graph::Pass::resume

use crate::graph::{Activations, Clamp, Network, NodeId, Prefix};
use alfi_tensor::Tensor;
use std::collections::HashMap;

/// How one derived node reuses a plain activation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Link {
    /// Bit-identical to the plain node's activation.
    Same(NodeId),
    /// A Ranger/Clipper guard over the plain node's activation: the
    /// identity while every element lies inside `[lo, hi]` (a NaN never
    /// does).
    Guard { plain: NodeId, lo: f32, hi: f32 },
}

impl Link {
    fn plain(self) -> NodeId {
        match self {
            Link::Same(k) | Link::Guard { plain: k, .. } => k,
        }
    }

    /// The derived node's own activation, given the plain network's
    /// activations: the plain one, if the link holds on it.
    fn holds<'p>(self, plain: &'p Activations<'_>) -> Option<&'p Tensor> {
        let t = plain.get(self.plain())?;
        match self {
            Link::Same(_) => Some(t),
            Link::Guard { lo, hi, .. } => t.data().iter().all(|&v| v >= lo && v <= hi).then_some(t),
        }
    }
}

/// Maps the leading nodes of a derived network onto the plain network
/// it was derived from.
///
/// Derived node `j` maps to plain node `k` when the two share the name,
/// the layer (kind, configuration and parameters bitwise, see
/// [`Layer::bitwise_eq`](crate::Layer::bitwise_eq)) and the guard
/// (bitwise, see [`Network::guard`]), and `j`'s inputs map to `k`'s
/// inputs. A guard only the derived node carries is the exception,
/// mapped conditionally: the node still maps to its plain twin, but is
/// the identity only while the plain activation lies inside the guard's
/// bounds, which [`NodeMap::resume_point`] checks per node. Activations
/// are compared as stored, i.e. guarded. The map ends at the first
/// derived node that does not map, so a magnitude-pruned copy (same
/// names, other weights) maps nothing.
#[derive(Debug, Clone, Default)]
pub struct NodeMap {
    links: Vec<Link>,
}

impl NodeMap {
    /// Builds the map of `derived` onto `plain`. Hooks play no part:
    /// the map describes hook-free passes.
    pub fn new(derived: &Network, plain: &Network) -> Self {
        let by_name: HashMap<&str, NodeId> =
            plain.nodes().iter().enumerate().map(|(k, n)| (n.name.as_str(), k)).collect();
        let mut links: Vec<Link> = Vec::new();
        for (id, node) in derived.nodes().iter().enumerate() {
            let inputs: Vec<NodeId> = node.inputs.iter().map(|&i| links[i].plain()).collect();
            let twin = by_name.get(node.name.as_str()).and_then(|&k| {
                let p = &plain.nodes()[k];
                if p.inputs != inputs || !p.layer.bitwise_eq(&node.layer) {
                    return None;
                }
                guard_link(k, plain.guard(k), derived.guard(id))
            });
            match twin {
                Some(l) => links.push(l),
                None => break,
            }
        }
        NodeMap { links }
    }

    /// Number of leading derived nodes the map covers.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the map covers no node.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The plain node whose activation derived node `id` reuses.
    pub fn plain_node(&self, id: NodeId) -> Option<NodeId> {
        self.links.get(id).map(|l| l.plain())
    }

    /// The first derived node a pass must evaluate, given the plain
    /// network's activations `plain` over the same input: the earliest
    /// of `limit`, the end of the map, a node whose plain activation
    /// `plain` lacks, and the first guard that trips on its input.
    pub fn resume_point(&self, limit: NodeId, plain: &Activations<'_>) -> NodeId {
        for (id, &link) in self.links.iter().enumerate().take(limit) {
            if link.holds(plain).is_none() {
                return id;
            }
        }
        limit.min(self.links.len())
    }

    /// `plain`'s activations seen through this map: the prefix a pass
    /// over the derived network resumes from.
    pub fn view<'m>(&'m self, plain: &'m Activations<'m>) -> Mapped<'m> {
        Mapped { map: self, plain }
    }
}

/// A plain pass's activations indexed by derived node id — see
/// [`NodeMap::view`].
pub struct Mapped<'m> {
    map: &'m NodeMap,
    plain: &'m Activations<'m>,
}

impl Prefix for Mapped<'_> {
    fn activation(&self, id: NodeId) -> Option<&Tensor> {
        self.map.plain_node(id).and_then(|k| self.plain.get(k))
    }

    /// The plain activation, for a node that maps as the same node or as
    /// a guard the plain activation lies inside.
    fn lends(&self, id: NodeId) -> Option<&Tensor> {
        self.map.links.get(id).and_then(|link| link.holds(self.plain))
    }
}

/// How a derived node with guard `d` relates to plain node `k` with
/// guard `p`, the layers and inputs already matching: the same guard
/// (bitwise) keeps the activation, a lone derived guard is a
/// [`Link::Guard`].
fn guard_link(k: NodeId, p: Option<Clamp>, d: Option<Clamp>) -> Option<Link> {
    match (p, d) {
        (None, None) => Some(Link::Same(k)),
        (None, Some(c)) => Some(Link::Guard { plain: k, lo: c.lo, hi: c.hi }),
        (Some(a), Some(b)) => a.bitwise_eq(b).then_some(Link::Same(k)),
        (Some(_), None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ClampMode, Pass};
    use crate::layer::{Layer, Linear};
    use alfi_tensor::Tensor;

    /// fc1 → relu → fc2, the output.
    fn plain() -> Network {
        let mut net = Network::new("mlp");
        let w1 = Tensor::from_vec(vec![1.0, -1.0, 2.0, 0.5], &[2, 2]).unwrap();
        let a = net.push("fc1", Layer::Linear(Linear { weight: w1, bias: None }), &[]).unwrap();
        let r = net.push("relu", Layer::Relu, &[a]).unwrap();
        let w2 = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let b = net.push("fc2", Layer::Linear(Linear { weight: w2, bias: None }), &[r]).unwrap();
        net.set_output(b).unwrap();
        net
    }

    fn guard(lo: f32, hi: f32) -> Clamp {
        Clamp { lo, hi, mode: ClampMode::Clip }
    }

    #[test]
    fn a_clone_maps_every_node_to_itself() {
        let net = plain();
        let map = NodeMap::new(&net.clone(), &net);
        assert_eq!(map.len(), 3);
        assert_eq!(
            (0..3).map(|i| map.plain_node(i)).collect::<Vec<_>>(),
            [Some(0), Some(1), Some(2)]
        );
    }

    #[test]
    fn a_derived_guard_maps_to_its_plain_node_and_trips_out_of_range() {
        let net = plain();
        for mode in [ClampMode::Clip, ClampMode::Zero] {
            let mut hardened = net.clone();
            hardened.set_guard(0, Clamp { mode, ..guard(-1.0, 4.0) }).unwrap();
            let map = NodeMap::new(&hardened, &net);
            assert_eq!(map.len(), 3, "{mode:?}");
            assert_eq!((map.plain_node(0), map.plain_node(1)), (Some(0), Some(1)));
            // fc1([1, 1]) = [0, 2.5]: inside [-1, 4], so the guard is the
            // identity and the whole prefix up to the limit is shared.
            let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
            let golden = net.evaluate(&x, Pass::new()).unwrap();
            assert_eq!(map.resume_point(usize::MAX, &golden), 3);
            assert_eq!(map.resume_point(2, &golden), 2);
            // fc1([2, 2]) = [0, 5] trips the guard: resume at its node.
            // A NaN never lies inside the bounds.
            for x in [[2.0, 2.0], [f32::NAN, 0.0]] {
                let x = Tensor::from_vec(x.to_vec(), &[1, 2]).unwrap();
                let golden = net.evaluate(&x, Pass::new()).unwrap();
                assert_eq!(map.resume_point(usize::MAX, &golden), 0, "{mode:?}");
            }
        }
    }

    #[test]
    fn equal_guards_map_as_the_same_node_and_any_difference_ends_the_map() {
        // Zero mode with 0 outside [lo, hi]: fc1([2, 2]) = [0, 5] guards
        // to [0, 0], which would trip a guard over the same bounds.
        let clamp = Clamp { lo: 0.5, hi: 4.0, mode: ClampMode::Zero };
        let mut net = plain();
        net.set_guard(0, clamp).unwrap();
        let map = NodeMap::new(&net.clone(), &net);
        assert_eq!(map.len(), 3);
        let x = Tensor::from_vec(vec![2.0, 2.0], &[1, 2]).unwrap();
        assert_eq!(map.resume_point(usize::MAX, &net.evaluate(&x, Pass::new()).unwrap()), 3);
        for (p, d) in [
            (clamp, Clamp { lo: 0.25, ..clamp }),
            (clamp, Clamp { hi: 4.5, ..clamp }),
            (clamp, Clamp { mode: ClampMode::Clip, ..clamp }),
            // Equal as numbers, not bitwise.
            (Clamp { lo: 0.0, ..clamp }, Clamp { lo: -0.0, ..clamp }),
        ] {
            let (mut plain_net, mut derived) = (plain(), plain());
            plain_net.set_guard(0, p).unwrap();
            derived.set_guard(0, d).unwrap();
            assert!(NodeMap::new(&derived, &plain_net).is_empty(), "{p:?} vs {d:?}");
        }
        // A guard only the plain node carries ends the map too.
        assert!(NodeMap::new(&plain(), &net).is_empty());
    }

    #[test]
    fn different_weights_names_or_wiring_end_the_map() {
        let net = plain();
        let mut pruned = net.clone();
        pruned.layer_mut(0).unwrap().weight_mut().unwrap().set(&[0, 1], 0.0);
        assert!(NodeMap::new(&pruned, &net).is_empty());
        // -0.0 == 0.0 numerically but not bitwise.
        let mut zero = net.clone();
        zero.layer_mut(2).unwrap().weight_mut().unwrap().set(&[0, 0], 0.0);
        let mut negative_zero = net.clone();
        negative_zero.layer_mut(2).unwrap().weight_mut().unwrap().set(&[0, 0], -0.0);
        assert_eq!(NodeMap::new(&negative_zero, &zero).len(), 2);
        let mut renamed = Network::new("mlp");
        for n in net.nodes() {
            let name = if n.name == "relu" { "act".to_string() } else { n.name.clone() };
            renamed.push(name, n.layer.clone(), &n.inputs).unwrap();
        }
        assert_eq!(NodeMap::new(&renamed, &net).len(), 1);
        let mut rewired = Network::new("mlp");
        for n in net.nodes() {
            rewired.push(n.name.clone(), n.layer.clone(), &[]).unwrap();
        }
        assert_eq!(NodeMap::new(&rewired, &net).len(), 1, "relu reads the input, not fc1");
    }

    #[test]
    fn a_resumed_derived_pass_matches_its_full_forward() {
        let net = plain();
        let mut hardened = net.clone();
        hardened.set_guard(1, guard(0.0, 3.0)).unwrap();
        let map = NodeMap::new(&hardened, &net);
        for x in [[1.0f32, 1.0], [2.0, 2.0], [-3.0, 1.0]] {
            let x = Tensor::from_vec(x.to_vec(), &[1, 2]).unwrap();
            let golden = net.evaluate(&x, Pass::new()).unwrap();
            let start = map.resume_point(usize::MAX, &golden);
            let view = map.view(&golden);
            let y = hardened.evaluate(&x, Pass::new().resume(start, &view)).unwrap();
            assert_eq!(y.into_output().unwrap(), hardened.forward(&x).unwrap(), "start {start}");
        }
    }
}
