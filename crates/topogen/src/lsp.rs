//! MPLS data-plane synthesis: label-switching paths, link-protection
//! bypass tunnels, and operator service chains.
//!
//! This reproduces the construction the paper applied to the Topology
//! Zoo networks — "label switching paths between any two edge routers
//! and with local fast failover protection by introducing tunnels based
//! on shortest paths" — and, scaled up via service chains, the
//! NORDUnet-style rule volume.
//!
//! * **IP LSPs.** Every destination edge router owns an IP label
//!   `ipN`. For each source edge router, the shortest path is programmed
//!   with per-hop bottom-of-stack labels: push at ingress, swap at every
//!   hop, penultimate... final-hop pop towards the egress stub.
//! * **Protection.** For every core link `e=(u,v)` carrying traffic, a
//!   bypass path `u→…→v` avoiding `e` is programmed exactly as in the
//!   paper's Figure 1: each primary rule at `u` over `e` gains a
//!   priority-2 clone whose operations end with `push(bypass-label)`;
//!   intermediate bypass routers swap; the penultimate bypass router
//!   pops; and every rule of `v` keyed on arrival over `e` is cloned for
//!   arrival over the bypass's last link.
//! * **Service chains.** Per-customer label chains entering at one edge
//!   router and leaving at another with per-hop swaps (the `s40…s44`
//!   pattern of Figure 1), used to reach operator-scale rule counts.

use detrand::DetRng;
use netmodel::{LabelId, LabelTable, LinkId, Network, Op, RouterId, RoutingEntry, Topology};
use std::collections::{HashMap, HashSet, VecDeque};

/// Parameters of the data-plane construction.
#[derive(Clone, Debug)]
pub struct LspConfig {
    /// Number of edge routers (terminating external links). Capped at
    /// the router count.
    pub edge_routers: usize,
    /// Cap on the number of (source, destination) LSP pairs.
    pub max_pairs: usize,
    /// Whether to program link-protection bypass tunnels.
    pub protect: bool,
    /// Number of service-label chains to install.
    pub service_chains: usize,
    /// RNG seed (edge-router choice, service chain endpoints).
    pub seed: u64,
}

impl Default for LspConfig {
    fn default() -> Self {
        LspConfig {
            edge_routers: 8,
            max_pairs: 200,
            protect: true,
            service_chains: 10,
            seed: 0xE5B,
        }
    }
}

/// A generated MPLS data plane plus handles for query generation.
#[derive(Clone, Debug)]
pub struct Dataplane {
    /// The network (topology + labels + rules).
    pub net: Network,
    /// The core routers designated as edge routers.
    pub edge_routers: Vec<RouterId>,
    /// External ingress link per edge router.
    pub ext_in: HashMap<RouterId, LinkId>,
    /// External egress link per edge router.
    pub ext_out: HashMap<RouterId, LinkId>,
    /// Installed service label names (ingress labels).
    pub service_labels: Vec<String>,
    /// Router sequence (ingress … egress) of each service chain, aligned
    /// with `service_labels`.
    pub service_routes: Vec<Vec<RouterId>>,
    /// Installed destination IP label names.
    pub ip_labels: Vec<String>,
}

/// Breadth-first shortest path from `src` to `dst` over `allowed` links;
/// returns the link sequence.
fn shortest_path(
    topo: &Topology,
    src: RouterId,
    dst: RouterId,
    allowed: &dyn Fn(LinkId) -> bool,
) -> Option<Vec<LinkId>> {
    if src == dst {
        return Some(Vec::new());
    }
    let mut prev: HashMap<RouterId, LinkId> = HashMap::new();
    let mut q = VecDeque::new();
    q.push_back(src);
    let mut seen: HashSet<RouterId> = [src].into_iter().collect();
    while let Some(r) = q.pop_front() {
        for &l in topo.links_from(r) {
            if !allowed(l) {
                continue;
            }
            let d = topo.dst(l);
            if seen.insert(d) {
                prev.insert(d, l);
                if d == dst {
                    let mut path = Vec::new();
                    let mut cur = dst;
                    while cur != src {
                        let l = prev[&cur];
                        path.push(l);
                        cur = topo.src(l);
                    }
                    path.reverse();
                    return Some(path);
                }
                q.push_back(d);
            }
        }
    }
    None
}

/// Build an MPLS data plane over `core` (consumed and extended with
/// external stub routers).
pub fn build_mpls_dataplane(mut core: Topology, cfg: &LspConfig) -> Dataplane {
    let mut rng = DetRng::seed_from_u64(cfg.seed);
    let n_core = core.num_routers();
    let n_core_links = core.num_links();

    // Choose edge routers (spread deterministically).
    let count = cfg.edge_routers.clamp(2, n_core as usize);
    let mut edge_routers: Vec<RouterId> = Vec::new();
    let mut candidates: Vec<u32> = (0..n_core).collect();
    for _ in 0..count {
        let i = rng.gen_range(0..candidates.len());
        edge_routers.push(RouterId(candidates.swap_remove(i)));
    }
    edge_routers.sort();

    // External stubs.
    let mut ext_in: HashMap<RouterId, LinkId> = HashMap::new();
    let mut ext_out: HashMap<RouterId, LinkId> = HashMap::new();
    for &r in &edge_routers {
        let name = format!("X_{}", core.router(r).name);
        let x = core.add_router(&name, None);
        let rin = core.add_link(x, "up", r, &format!("ext_{name}"), 1);
        let rout = core.add_link(r, &format!("ext_{name}"), x, "down", 1);
        ext_in.insert(r, rin);
        ext_out.insert(r, rout);
    }
    let is_core_link = |l: LinkId| l.0 < n_core_links;

    // Shortest paths between edge-router pairs are reused heavily —
    // every service chain between the same endpoints walks the same
    // route — so memoize them. At scale-tier sizes (1000+ routers,
    // 100k+ chains) this turns 100k BFS traversals into at most
    // edge_routers² of them.
    let mut path_cache: HashMap<(RouterId, RouterId), Option<Vec<LinkId>>> = HashMap::new();

    let mut labels = LabelTable::new();
    let mut net_rules: Vec<(LinkId, LabelId, usize, RoutingEntry)> = Vec::new();

    // ---- IP LSPs ------------------------------------------------------
    let mut ip_labels = Vec::new();
    let mut pairs = 0usize;
    'outer: for &t in &edge_routers {
        let ip_name = format!("ip{}", t.0);
        let ip = labels.ip(&ip_name);
        ip_labels.push(ip_name);
        for &s in &edge_routers {
            if s == t {
                continue;
            }
            if pairs >= cfg.max_pairs {
                break 'outer;
            }
            let path = path_cache
                .entry((s, t))
                .or_insert_with(|| shortest_path(&core, s, t, &|l| is_core_link(l)));
            let Some(path) = path.clone() else {
                continue;
            };
            pairs += 1;
            if path.is_empty() {
                continue;
            }
            let m = path.len();
            // Egress rule at t: plain IP forwarding to the stub. (Shared
            // across sources using the same last link; de-duplicated at
            // materialization.)
            net_rules.push((
                path[m - 1],
                ip,
                1,
                RoutingEntry {
                    out: ext_out[&t],
                    ops: vec![].into(),
                },
            ));
            if m == 1 {
                // Adjacent: no label needed at all (pure IP hop).
                net_rules.push((
                    ext_in[&s],
                    ip,
                    1,
                    RoutingEntry {
                        out: path[0],
                        ops: vec![].into(),
                    },
                ));
                continue;
            }
            // Hop labels s{src}_{dst}_{i}, bottom-of-stack; penultimate
            // hop popping: the label is removed one hop before t, so the
            // last link carries the bare IP header.
            let hop_label = |labels: &mut LabelTable, i: usize| {
                labels.mpls_bos(&format!("s{}_{}_{}", s.0, t.0, i))
            };
            let first = hop_label(&mut labels, 1);
            net_rules.push((
                ext_in[&s],
                ip,
                1,
                RoutingEntry {
                    out: path[0],
                    ops: vec![Op::Push(first)].into(),
                },
            ));
            for i in 0..m - 1 {
                let cur = hop_label(&mut labels, i + 1);
                let ops = if i + 2 == m {
                    vec![Op::Pop] // penultimate hop popping
                } else {
                    vec![Op::Swap(hop_label(&mut labels, i + 2))]
                };
                net_rules.push((
                    path[i],
                    cur,
                    1,
                    RoutingEntry {
                        out: path[i + 1],
                        ops: ops.into(),
                    },
                ));
            }
        }
    }

    // ---- service chains -------------------------------------------------
    let mut service_labels = Vec::new();
    let mut service_routes: Vec<Vec<RouterId>> = Vec::new();
    for c in 0..cfg.service_chains {
        let s = edge_routers[rng.gen_range(0..edge_routers.len())];
        let mut t = edge_routers[rng.gen_range(0..edge_routers.len())];
        if s == t {
            t = edge_routers
                [(edge_routers.iter().position(|&x| x == s).unwrap() + 1) % edge_routers.len()];
        }
        let path = path_cache
            .entry((s, t))
            .or_insert_with(|| shortest_path(&core, s, t, &|l| is_core_link(l)));
        let Some(path) = path.clone() else {
            continue;
        };
        if path.is_empty() {
            continue;
        }
        let name = format!("sv{c}_0");
        let ingress = labels.mpls_bos(&name);
        service_labels.push(name);
        let mut route = vec![s];
        route.extend(path.iter().map(|&l| core.dst(l)));
        service_routes.push(route);
        let step = |labels: &mut LabelTable, i: usize| labels.mpls_bos(&format!("sv{c}_{i}"));
        let first = step(&mut labels, 1);
        net_rules.push((
            ext_in[&s],
            ingress,
            1,
            RoutingEntry {
                out: path[0],
                ops: vec![Op::Swap(first)].into(),
            },
        ));
        for (i, &l) in path.iter().enumerate() {
            let cur = step(&mut labels, i + 1);
            let next = step(&mut labels, i + 2);
            let out = if i + 1 < path.len() {
                path[i + 1]
            } else {
                ext_out[&t]
            };
            net_rules.push((
                l,
                cur,
                1,
                RoutingEntry {
                    out,
                    ops: vec![Op::Swap(next)].into(),
                },
            ));
        }
    }

    // ---- protection -----------------------------------------------------
    if cfg.protect {
        // Snapshot primary rules: per protected core link e, the rules at
        // s(e) that forward over e, and the rules at t(e) keyed on e.
        let mut over_link: HashMap<LinkId, Vec<usize>> = HashMap::new();
        let mut keyed_on: HashMap<LinkId, Vec<usize>> = HashMap::new();
        for (i, (in_link, _label, _prio, entry)) in net_rules.iter().enumerate() {
            if is_core_link(entry.out) {
                over_link.entry(entry.out).or_default().push(i);
            }
            if is_core_link(*in_link) {
                keyed_on.entry(*in_link).or_default().push(i);
            }
        }
        // Sorted, not in `HashMap` order: bypass labels are interned and
        // bypass rules appended in this order, so it must not change from
        // run to run.
        let mut protected: Vec<LinkId> = over_link.keys().copied().collect();
        protected.sort_unstable();
        let mut new_rules: Vec<(LinkId, LabelId, usize, RoutingEntry)> = Vec::new();
        for e in protected {
            let (u, v) = (core.src(e), core.dst(e));
            let Some(bypass) = shortest_path(&core, u, v, &|l| is_core_link(l) && l != e) else {
                continue; // no protection possible
            };
            if bypass.len() == 1 {
                // A parallel link: protection needs no tunnel at all —
                // reuse the primary operations over the alternate link.
                for &i in &over_link[&e] {
                    let (in_link, label, _prio, entry) = net_rules[i].clone();
                    new_rules.push((
                        in_link,
                        label,
                        2,
                        RoutingEntry {
                            out: bypass[0],
                            ops: entry.ops.clone(),
                        },
                    ));
                }
                if let Some(rules) = keyed_on.get(&e) {
                    for &i in rules {
                        let (_in, label, prio, entry) = net_rules[i].clone();
                        new_rules.push((bypass[0], label, prio, entry));
                    }
                }
                continue;
            }
            // Bypass labels (plain MPLS) along the detour.
            let bp = |labels: &mut LabelTable, i: usize| labels.mpls(&format!("bp{}_{}", e.0, i));
            // Priority-2 clones at u.
            let first_bp = bp(&mut labels, 1);
            for &i in &over_link[&e] {
                let (in_link, label, prio, entry) = net_rules[i].clone();
                debug_assert_eq!(prio, 1);
                let mut ops = entry.ops.clone();
                ops.push(Op::Push(first_bp));
                new_rules.push((
                    in_link,
                    label,
                    2,
                    RoutingEntry {
                        out: bypass[0],
                        ops,
                    },
                ));
            }
            // Swap chain; pop at the penultimate bypass router.
            for (i, &l) in bypass.iter().enumerate() {
                if i + 1 >= bypass.len() {
                    break;
                }
                let cur = bp(&mut labels, i + 1);
                let ops = if i + 2 == bypass.len() {
                    vec![Op::Pop]
                } else {
                    vec![Op::Swap(bp(&mut labels, i + 2))]
                };
                new_rules.push((
                    l,
                    cur,
                    1,
                    RoutingEntry {
                        out: bypass[i + 1],
                        ops: ops.into(),
                    },
                ));
            }
            // Clone v's rules keyed on e for arrival over the bypass.
            let last = *bypass.last().expect("non-empty bypass");
            if let Some(rules) = keyed_on.get(&e) {
                for &i in rules {
                    let (_in, label, prio, entry) = net_rules[i].clone();
                    new_rules.push((last, label, prio, entry));
                }
            }
        }
        net_rules.extend(new_rules);
    }

    // Materialize, de-duplicating identical (in, label, prio, entry) rows
    // (protection of shared path segments can produce duplicates).
    let mut net = Network::new(core, labels);
    let mut seen: HashSet<(u32, u32, usize, u32, netmodel::OpSeq)> = HashSet::new();
    for (in_link, label, prio, entry) in net_rules {
        let key = (in_link.0, label.0, prio, entry.out.0, entry.ops.clone());
        if seen.insert(key) {
            net.add_rule(in_link, label, prio, entry);
        }
    }
    debug_assert!(net.validate().is_empty(), "{:?}", net.validate());

    Dataplane {
        net,
        edge_routers,
        ext_in,
        ext_out,
        service_labels,
        service_routes,
        ip_labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{zoo_like, ZooConfig};
    use netmodel::Header;
    use std::collections::HashSet as Set;

    fn small_dataplane() -> Dataplane {
        let topo = zoo_like(&ZooConfig {
            routers: 20,
            avg_degree: 3.0,
            seed: 5,
        });
        build_mpls_dataplane(
            topo,
            &LspConfig {
                edge_routers: 6,
                max_pairs: 40,
                protect: true,
                service_chains: 4,
                seed: 9,
            },
        )
    }

    #[test]
    fn dataplane_is_well_formed() {
        let dp = small_dataplane();
        assert!(dp.net.validate().is_empty());
        assert!(dp.net.num_rules() > 50);
        assert_eq!(dp.edge_routers.len(), 6);
        assert_eq!(dp.ext_in.len(), 6);
        assert_eq!(dp.ext_out.len(), 6);
        assert!(!dp.ip_labels.is_empty());
        assert!(!dp.service_labels.is_empty());
    }

    #[test]
    fn lsp_forwards_end_to_end() {
        // Simulate a packet from the first edge router towards another
        // destination: it must reach the destination's egress stub.
        let dp = small_dataplane();
        let net = &dp.net;
        let t = dp.edge_routers[1];
        let s = dp.edge_routers[0];
        let ip = net.labels.get(&format!("ip{}", t.0)).expect("ip label");
        let mut link = dp.ext_in[&s];
        let mut header = Header::single(ip);
        let failed = Set::new();
        for _ in 0..64 {
            if link == dp.ext_out[&t] {
                assert_eq!(header, Header::single(ip), "penultimate pop restores IP");
                return;
            }
            let succ = netmodel::successors(net, link, &header, &failed);
            assert!(
                !succ.is_empty(),
                "packet stuck on {} with {}",
                net.topology.link_name(link),
                header.display(&net.labels)
            );
            link = succ[0].0;
            header = succ[0].1.clone();
        }
        panic!("packet looped");
    }

    #[test]
    fn protection_rules_have_priority_two() {
        let dp = small_dataplane();
        let mut saw_backup = false;
        for (link, label) in dp.net.routing_keys() {
            if dp.net.groups(link, label).len() > 1 {
                saw_backup = true;
                break;
            }
        }
        assert!(saw_backup, "protection must install priority-2 groups");
    }

    #[test]
    fn protected_lsp_survives_single_failure() {
        // Fail the first primary link out of the source; the packet must
        // still reach the destination (via the bypass tunnel).
        let dp = small_dataplane();
        let net = &dp.net;
        let (s, t) = (dp.edge_routers[0], dp.edge_routers[1]);
        let ip = net.labels.get(&format!("ip{}", t.0)).expect("ip label");

        // Discover the primary first link.
        let groups = net.groups(dp.ext_in[&s], ip);
        assert!(!groups.is_empty());
        let primary_first = groups[0][0].out;
        let failed: Set<_> = [primary_first].into_iter().collect();

        let mut link = dp.ext_in[&s];
        let mut header = Header::single(ip);
        let mut reached = false;
        for _ in 0..64 {
            if link == dp.ext_out[&t] {
                reached = true;
                break;
            }
            let succ = netmodel::successors(net, link, &header, &failed);
            if succ.is_empty() {
                break;
            }
            link = succ[0].0;
            header = succ[0].1.clone();
        }
        assert!(
            reached,
            "packet should survive failure of {}",
            net.topology.link_name(primary_first)
        );
    }

    #[test]
    fn service_chain_swaps_only() {
        // Service-labelled packets keep exactly one label end-to-end.
        let dp = small_dataplane();
        let net = &dp.net;
        let Some(first_sv) = dp.service_labels.first() else {
            panic!("no service chains built");
        };
        let sv = net.labels.get(first_sv).unwrap();
        // Find its ingress edge router.
        let (mut link, _) = dp
            .ext_in
            .iter()
            .map(|(_, &l)| (l, ()))
            .find(|(l, ())| !net.groups(*l, sv).is_empty())
            .expect("service ingress");
        let ip = net.labels.get(&dp.ip_labels[0]).unwrap();
        let mut header = Header::from_top_first(vec![sv, ip]);
        let failed = Set::new();
        for _ in 0..64 {
            let succ = netmodel::successors(net, link, &header, &failed);
            if succ.is_empty() {
                // Chain exits network with a single swapped label.
                assert_eq!(header.len(), 2);
                return;
            }
            link = succ[0].0;
            header = succ[0].1.clone();
            assert_eq!(header.len(), 2, "service chains never push");
        }
        panic!("service chain looped");
    }

    #[test]
    fn deterministic_generation() {
        let a = small_dataplane();
        let b = small_dataplane();
        assert_eq!(a.net.num_rules(), b.net.num_rules());
        assert_eq!(a.ip_labels, b.ip_labels);
        assert_eq!(a.service_labels, b.service_labels);
    }
}
