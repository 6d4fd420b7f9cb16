//! IS-IS / router-snapshot ingestion (Appendix A.1).
//!
//! The original tool builds its network model directly from per-router
//! XML dumps taken on Juniper devices:
//!
//! ```text
//! show isis adjacency detail | display xml
//! show route forwarding-table family mpls extensive | display xml
//! show pfe next-hop | display xml
//! ```
//!
//! plus a *mapping file* with one line per logical routing entity:
//!
//! ```text
//! <aliases>:<adj.xml>:<route-ft.xml>:<pfe.xml>
//! 192.0.0.1,R1:R1-adj.xml:R1-route.xml:R1-pfe.xml
//! 192.0.0.2,10.10.0.2,E1
//! ```
//!
//! Edge routers list only aliases; their routing table is empty and they
//! act as sink nodes.
//!
//! This module implements a documented subset of those dumps, sufficient
//! to reconstruct a [`Network`]:
//!
//! * **adjacency**: `<isis-adjacency>` records with `<system-name>`,
//!   `<interface-name>` and `<adjacency-state>Up</adjacency-state>`.
//!   Each Up adjacency `A.if → B` yields the directed link; the paired
//!   reverse link comes from `B`'s own dump (or, for edge routers, is
//!   synthesized).
//! * **forwarding table**: `<rt-entry>` records keyed by
//!   `<mpls-label>` (`"299776"`, with an ` S` suffix marking the
//!   bottom-of-stack bit) or an IP destination `<rt-destination>`
//!   (`"10.0.1.0/24"`). Next hops carry `<via>` (outgoing interface) or
//!   an `<nh-index>` resolved through the PFE dump, a textual operation
//!   list `<nh-type>` (`"Swap 299792"`, `"Pop"`,
//!   `"Swap 299792, Push 299800"`), and a `<weight>` whose Juniper
//!   convention `0x1`/`0x4000`/`0x8000` orders primary and backup
//!   groups.
//!   Juniper MPLS tables are keyed per router (not per incoming
//!   interface), so each entry is installed for *every* incoming link of
//!   the router — the same router-level semantics the original tool
//!   applies.
//! * **PFE next-hops**: `<pfe-nh>` records mapping `<nh-index>` to
//!   `<interface-name>`.
//!
//! [`write_isis_snapshot`] produces such dumps from a [`Network`], which
//! is how the test-suite round-trips and how synthetic workloads can be
//! exported for external tooling.
//!
//! **Known limitation:** the adjacency dump names only the *local*
//! interface of each link, so the reconstructed links carry placeholder
//! incoming-interface names (`from_<router>`). Router- and
//! label-granular queries are unaffected (rules are installed per
//! incoming *link*), but interface-precise link atoms
//! (`[A.if#B.if]`) can only match the source side of IS-IS-ingested
//! links. Use the vendor-agnostic `topo.xml` format when destination
//! interfaces matter.

use crate::route_xml::intern_label;
use crate::topo_xml::FormatError;
use crate::xml::{parse as parse_xml, Element};
use netmodel::{LabelKind, LabelTable, LinkId, Network, Op, RouterId, RoutingEntry, Topology};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One line of the mapping file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MappingEntry {
    /// Aliases; the last one is used as the router's display name.
    pub aliases: Vec<String>,
    /// Paths of the three dumps, absent for edge routers.
    pub files: Option<(String, String, String)>,
}

impl MappingEntry {
    /// The router name (the last alias, per the paper's example where
    /// `192.0.0.1,R1` names the router `R1`).
    pub fn name(&self) -> &str {
        self.aliases.last().map(|s| s.as_str()).unwrap_or("")
    }

    /// Whether this is an edge router (no dumps).
    pub fn is_edge(&self) -> bool {
        self.files.is_none()
    }
}

/// Parse the mapping file.
pub fn parse_mapping(text: &str) -> Result<Vec<MappingEntry>, FormatError> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split(':').collect();
        let aliases: Vec<String> = parts[0].split(',').map(|s| s.trim().to_string()).collect();
        if aliases.is_empty() || aliases[0].is_empty() {
            return Err(FormatError::Semantic(format!(
                "mapping line {}: no aliases",
                ln + 1
            )));
        }
        let files = match parts.len() {
            1 => None,
            4 => Some((
                parts[1].trim().to_string(),
                parts[2].trim().to_string(),
                parts[3].trim().to_string(),
            )),
            n => {
                return Err(FormatError::Semantic(format!(
                    "mapping line {}: expected 1 or 4 ':'-separated fields, found {n}",
                    ln + 1
                )))
            }
        };
        out.push(MappingEntry { aliases, files });
    }
    Ok(out)
}

// ---- label & operation text ------------------------------------------------

fn parse_label(text: &str, labels: &mut LabelTable) -> Result<netmodel::LabelId, FormatError> {
    let text = text.trim();
    if let Some(stripped) = text.strip_suffix(" S") {
        intern_label(labels, &format!("{}S", stripped.trim()), LabelKind::MplsBos)
    } else if text.contains('/') || text.contains('.') {
        intern_label(labels, text, LabelKind::Ip)
    } else if text.is_empty() {
        Err(FormatError::Semantic("empty label".into()))
    } else {
        intern_label(labels, text, LabelKind::Mpls)
    }
}

fn render_label(net: &Network, l: netmodel::LabelId) -> String {
    let name = net.labels.name(l);
    match net.labels.kind(l) {
        LabelKind::MplsBos => format!("{} S", name.strip_suffix('S').unwrap_or(name)),
        _ => name.to_string(),
    }
}

/// Parse an `<nh-type>` operation list: `"Pop"`, `"Swap 299792"`,
/// `"Push 299800"`, comma-separated combinations, or `""` (no-op
/// forwarding).
pub fn parse_ops(text: &str, labels: &mut LabelTable) -> Result<Vec<Op>, FormatError> {
    let mut ops = Vec::new();
    for part in text.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let lower = part.to_ascii_lowercase();
        if lower == "pop" {
            ops.push(Op::Pop);
        } else if let Some(rest) = lower.strip_prefix("swap ") {
            let orig = &part[5..];
            let _ = rest;
            ops.push(Op::Swap(parse_label(orig, labels)?));
        } else if let Some(rest) = lower.strip_prefix("push ") {
            let orig = &part[5..];
            let _ = rest;
            ops.push(Op::Push(parse_label(orig, labels)?));
        } else {
            return Err(FormatError::Semantic(format!("unknown operation {part:?}")));
        }
    }
    Ok(ops)
}

fn render_ops(net: &Network, ops: &[Op]) -> String {
    ops.iter()
        .map(|op| match op {
            Op::Pop => "Pop".to_string(),
            Op::Swap(l) => format!("Swap {}", render_label(net, *l)),
            Op::Push(l) => format!("Push {}", render_label(net, *l)),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Juniper weight → priority group. `0x1` (primary) → 1, `0x4000` → 2,
/// `0x8000` → 3; anything else parses as a decimal priority.
fn priority_from_weight(w: &str) -> Result<usize, FormatError> {
    match w.trim() {
        "0x1" | "" => Ok(1),
        "0x4000" => Ok(2),
        "0x8000" => Ok(3),
        other => other
            .parse::<usize>()
            .map_err(|_| FormatError::Semantic(format!("bad weight {other:?}"))),
    }
}

fn weight_from_priority(p: usize) -> String {
    match p {
        1 => "0x1".into(),
        2 => "0x4000".into(),
        3 => "0x8000".into(),
        n => n.to_string(),
    }
}

// ---- snapshot construction ---------------------------------------------------

/// Build a [`Network`] from a mapping file and a file reader (letting
/// callers back the snapshot by a directory, an archive, or an in-memory
/// map).
pub fn network_from_isis(
    mapping_text: &str,
    read: &dyn Fn(&str) -> Result<String, String>,
) -> Result<Network, FormatError> {
    let mapping = parse_mapping(mapping_text)?;

    // Pass 1: routers.
    let mut topo = Topology::new();
    let mut by_alias: HashMap<String, RouterId> = HashMap::new();
    for entry in &mapping {
        if topo.router_by_name(entry.name()).is_some() {
            return Err(FormatError::Semantic(format!(
                "duplicate router name {:?} in mapping",
                entry.name()
            )));
        }
        let id = topo.add_router(entry.name(), None);
        for alias in &entry.aliases {
            by_alias.insert(alias.clone(), id);
        }
    }

    // Pass 2: adjacencies → directed links. Each router's dump declares
    // its *outgoing* side; we synthesize the reverse for edge neighbors
    // that have no dump of their own.
    let mut link_of: HashMap<(RouterId, String), LinkId> = HashMap::new();
    let mut adj_docs: Vec<(RouterId, Element)> = Vec::new();
    for entry in &mapping {
        let Some((adj_path, _, _)) = &entry.files else {
            continue;
        };
        let text = read(adj_path).map_err(FormatError::Semantic)?;
        let doc = parse_xml(&text)?;
        if doc.name != "isis-adjacency-information" {
            return Err(FormatError::Semantic(format!(
                "{adj_path}: expected <isis-adjacency-information>, found <{}>",
                doc.name
            )));
        }
        adj_docs.push((by_alias[entry.name()], doc));
    }
    for (router, doc) in &adj_docs {
        for adj in doc.children_named("isis-adjacency") {
            let state = adj
                .first_child("adjacency-state")
                .map(|e| e.text.as_str())
                .unwrap_or("Up");
            if state != "Up" {
                continue;
            }
            let iface = adj
                .first_child("interface-name")
                .map(|e| e.text.clone())
                .ok_or_else(|| FormatError::Semantic("adjacency without interface".into()))?;
            let neighbor = adj
                .first_child("system-name")
                .map(|e| e.text.clone())
                .ok_or_else(|| FormatError::Semantic("adjacency without system-name".into()))?;
            let Some(&nid) = by_alias.get(&neighbor) else {
                return Err(FormatError::Semantic(format!(
                    "adjacency references unknown system {neighbor:?}"
                )));
            };
            // The remote interface name is the neighbor's own business;
            // use a deterministic placeholder matched by its dump (if it
            // has one, it declares its own outgoing link).
            let l = topo.add_link(
                *router,
                &iface,
                nid,
                &format!("from_{}", topo.router(*router).name.clone()),
                1,
            );
            link_of.insert((*router, iface), l);
        }
    }
    // Synthesize reverse links for pairs missing one direction (edge
    // routers have no dumps and therefore no outgoing links yet).
    let existing: Vec<(RouterId, RouterId)> =
        topo.links().map(|l| (topo.src(l), topo.dst(l))).collect();
    let present: HashSet<(RouterId, RouterId)> = existing.iter().copied().collect();
    for &(a, b) in &existing {
        if !present.contains(&(b, a)) {
            let name_a = topo.router(a).name.clone();
            let name_b = topo.router(b).name.clone();
            let l = topo.add_link(b, &format!("to_{name_a}"), a, &format!("from_{name_b}"), 1);
            link_of.insert((b, format!("to_{name_a}")), l);
        }
    }

    // Pass 3: forwarding tables.
    let mut labels = LabelTable::new();
    let mut rules: Vec<(LinkId, netmodel::LabelId, usize, RoutingEntry)> = Vec::new();
    for entry in &mapping {
        let Some((_, route_path, pfe_path)) = &entry.files else {
            continue;
        };
        let router = by_alias[entry.name()];
        let pfe_text = read(pfe_path).map_err(FormatError::Semantic)?;
        let pfe = parse_pfe(&pfe_text)?;
        let text = read(route_path).map_err(FormatError::Semantic)?;
        let doc = parse_xml(&text)?;
        if doc.name != "forwarding-table-information" {
            return Err(FormatError::Semantic(format!(
                "{route_path}: expected <forwarding-table-information>",
            )));
        }
        let in_links: Vec<LinkId> = topo.links_into(router).to_vec();
        for table in doc.children_named("route-table") {
            for rt in table.children_named("rt-entry") {
                let label = if let Some(l) = rt.first_child("mpls-label") {
                    parse_label(&l.text, &mut labels)?
                } else if let Some(d) = rt.first_child("rt-destination") {
                    parse_label(&d.text, &mut labels)?
                } else {
                    return Err(FormatError::Semantic(
                        "rt-entry without mpls-label or rt-destination".into(),
                    ));
                };
                for nh in rt.children_named("nh") {
                    let iface = match nh.first_child("via") {
                        Some(v) => v.text.clone(),
                        None => {
                            let idx = nh
                                .first_child("nh-index")
                                .map(|e| e.text.clone())
                                .ok_or_else(|| {
                                    FormatError::Semantic("nh without via or nh-index".into())
                                })?;
                            pfe.get(&idx).cloned().ok_or_else(|| {
                                FormatError::Semantic(format!("unknown nh-index {idx}"))
                            })?
                        }
                    };
                    let Some(out) = topo.link_by_interface(router, &iface) else {
                        return Err(FormatError::Semantic(format!(
                            "router {} has no interface {iface:?}",
                            topo.router(router).name
                        )));
                    };
                    let ops = parse_ops(
                        nh.first_child("nh-type")
                            .map(|e| e.text.as_str())
                            .unwrap_or(""),
                        &mut labels,
                    )?;
                    let prio = priority_from_weight(
                        nh.first_child("weight")
                            .map(|e| e.text.as_str())
                            .unwrap_or("0x1"),
                    )?;
                    // Router-level table: install for every incoming link.
                    for &in_link in &in_links {
                        rules.push((
                            in_link,
                            label,
                            prio,
                            RoutingEntry {
                                out,
                                ops: ops.clone().into(),
                            },
                        ));
                    }
                }
            }
        }
    }

    let mut net = Network::new(topo, labels);
    for (in_link, label, prio, entry) in rules {
        net.add_rule(in_link, label, prio, entry);
    }
    Ok(net)
}

fn parse_pfe(text: &str) -> Result<HashMap<String, String>, FormatError> {
    let doc = parse_xml(text)?;
    if doc.name != "pfe-next-hop-information" {
        return Err(FormatError::Semantic(format!(
            "expected <pfe-next-hop-information>, found <{}>",
            doc.name
        )));
    }
    let mut map = HashMap::new();
    for nh in doc.children_named("pfe-nh") {
        let idx = nh
            .first_child("nh-index")
            .map(|e| e.text.clone())
            .ok_or_else(|| FormatError::Semantic("pfe-nh without nh-index".into()))?;
        let iface = nh
            .first_child("interface-name")
            .map(|e| e.text.clone())
            .ok_or_else(|| FormatError::Semantic("pfe-nh without interface-name".into()))?;
        map.insert(idx, iface);
    }
    Ok(map)
}

// ---- snapshot writer -------------------------------------------------------

/// Export a network as an IS-IS snapshot: returns the mapping file text
/// plus `(filename, content)` pairs.
///
/// Only networks with *router-level* forwarding (every incoming link of
/// a router carries the same rules) round-trip exactly; per-in-link
/// rules are emitted per router and thus generalized to all incoming
/// links on re-import, mirroring the lossy direction of the real
/// Juniper pipeline.
pub fn write_isis_snapshot(net: &Network) -> (String, Vec<(String, String)>) {
    let topo = &net.topology;
    let mut mapping = String::new();
    let mut files: Vec<(String, String)> = Vec::new();

    for r in topo.routers() {
        let name = topo.router(r).name.clone();
        let has_rules = topo
            .links_into(r)
            .iter()
            .any(|&l| net.routing_keys().any(|(kl, _)| kl == l));
        let has_out = !topo.links_from(r).is_empty();
        if !has_rules && !has_out {
            mapping.push_str(&format!("10.0.0.{},{}\n", r.0 + 1, name));
            continue;
        }
        mapping.push_str(&format!(
            "10.0.0.{},{name}:{name}-adj.xml:{name}-route.xml:{name}-pfe.xml\n",
            r.0 + 1
        ));

        // adjacency dump: one record per outgoing link.
        let mut adj = Element::new("isis-adjacency-information");
        for &l in topo.links_from(r) {
            let link = topo.link(l);
            adj = adj.child(
                Element::new("isis-adjacency")
                    .child(text_el("interface-name", &link.src_if))
                    .child(text_el("system-name", &topo.router(link.dst).name))
                    .child(text_el("adjacency-state", "Up")),
            );
        }
        files.push((format!("{name}-adj.xml"), adj.to_xml()));

        // forwarding table: router-level — collect the union of rules on
        // all incoming links, de-duplicated.
        let mut rows: BTreeMap<(String, usize, String, String), ()> = BTreeMap::new();
        for &in_link in topo.links_into(r) {
            for (kl, label) in net.routing_keys() {
                if kl != in_link {
                    continue;
                }
                for (gi, group) in net.groups(kl, label).iter().enumerate() {
                    for entry in group {
                        rows.insert(
                            (
                                render_label(net, label),
                                gi + 1,
                                topo.link(entry.out).src_if.clone(),
                                render_ops(net, &entry.ops),
                            ),
                            (),
                        );
                    }
                }
            }
        }
        let mut table = Element::new("route-table");
        for ((label, prio, via, ops), ()) in rows {
            let key_el = if label.contains('/') || label.contains('.') {
                text_el("rt-destination", &label)
            } else {
                text_el("mpls-label", &label)
            };
            table = table.child(
                Element::new("rt-entry").child(key_el).child(
                    Element::new("nh")
                        .child(text_el("via", &via))
                        .child(text_el("nh-type", &ops))
                        .child(text_el("weight", &weight_from_priority(prio))),
                ),
            );
        }
        files.push((
            format!("{name}-route.xml"),
            Element::new("forwarding-table-information")
                .child(table)
                .to_xml(),
        ));

        // pfe dump: a stable index per outgoing interface.
        let mut pfe = Element::new("pfe-next-hop-information");
        for (i, &l) in topo.links_from(r).iter().enumerate() {
            pfe = pfe.child(
                Element::new("pfe-nh")
                    .child(text_el("nh-index", &format!("{}", 600 + i)))
                    .child(text_el("interface-name", &topo.link(l).src_if)),
            );
        }
        files.push((format!("{name}-pfe.xml"), pfe.to_xml()));
    }
    (mapping, files)
}

fn text_el(name: &str, text: &str) -> Element {
    let mut e = Element::new(name);
    e.text = text.to_string();
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as Map;

    #[test]
    fn mapping_file_parses() {
        let text = "192.0.0.1,R1:R1-adj.xml:R1-route.xml:R1-pfe.xml\n\
                    192.0.0.2,10.10.0.2,E1\n\
                    # comment\n\n";
        let entries = parse_mapping(text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name(), "R1");
        assert!(!entries[0].is_edge());
        assert_eq!(entries[1].name(), "E1");
        assert!(entries[1].is_edge());
        assert_eq!(entries[1].aliases.len(), 3);
    }

    #[test]
    fn bad_mapping_rejected() {
        assert!(parse_mapping("a:b\n").is_err());
    }

    #[test]
    fn ops_text_round_trips() {
        let mut labels = LabelTable::new();
        let ops = parse_ops("Swap 299792, Push 299800", &mut labels).unwrap();
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[0], Op::Swap(_)));
        assert!(matches!(ops[1], Op::Push(_)));
        assert!(parse_ops("Pop", &mut labels).unwrap().len() == 1);
        assert!(parse_ops("", &mut labels).unwrap().is_empty());
        assert!(parse_ops("Teleport 3", &mut labels).is_err());
    }

    #[test]
    fn label_kinds_from_text() {
        let mut labels = LabelTable::new();
        let plain = parse_label("299776", &mut labels).unwrap();
        let bos = parse_label("299777 S", &mut labels).unwrap();
        let ip = parse_label("10.0.1.0/24", &mut labels).unwrap();
        assert_eq!(labels.kind(plain), LabelKind::Mpls);
        assert_eq!(labels.kind(bos), LabelKind::MplsBos);
        assert_eq!(labels.kind(ip), LabelKind::Ip);
    }

    #[test]
    fn label_kind_clash_is_an_error() {
        // "100 S" interns as bottom-of-stack "100S"; the bare text
        // "100S" would be a plain MPLS label of the same name.
        let mut labels = LabelTable::new();
        parse_label("100 S", &mut labels).unwrap();
        assert!(matches!(
            parse_label("100S", &mut labels),
            Err(FormatError::Semantic(_))
        ));
    }

    /// Build a small router-level network, export it as an IS-IS
    /// snapshot, re-import it, and verify with the engine.
    #[test]
    fn snapshot_round_trip_verifies() {
        // E1 → R1 → R2 → E2 with a swap chain on a bottom-of-stack label.
        let mut topo = Topology::new();
        let e1 = topo.add_router("E1", None);
        let r1 = topo.add_router("R1", None);
        let r2 = topo.add_router("R2", None);
        let e2 = topo.add_router("E2", None);
        let l01 = topo.add_link(e1, "up", r1, "d", 1);
        let l12 = topo.add_link(r1, "et-0/0/1.0", r2, "a", 1);
        let l23 = topo.add_link(r2, "et-0/0/2.0", e2, "b", 1);
        let mut labels = LabelTable::new();
        let s1 = labels.intern("100S", LabelKind::MplsBos);
        let s2 = labels.intern("101S", LabelKind::MplsBos);
        let ip = labels.intern("10.0.9.0/24", LabelKind::Ip);
        let mut net = Network::new(topo, labels);
        net.add_rule(
            l01,
            s1,
            1,
            RoutingEntry {
                out: l12,
                ops: vec![Op::Swap(s2)].into(),
            },
        );
        net.add_rule(
            l12,
            s2,
            1,
            RoutingEntry {
                out: l23,
                ops: vec![Op::Pop].into(),
            },
        );
        // Plain IP forwarding at R2 so the IP label survives the export.
        net.add_rule(
            l12,
            ip,
            1,
            RoutingEntry {
                out: l23,
                ops: vec![].into(),
            },
        );

        let (mapping, files) = write_isis_snapshot(&net);
        let store: Map<String, String> = files.into_iter().collect();
        let reloaded = network_from_isis(&mapping, &|p| {
            store.get(p).cloned().ok_or_else(|| format!("missing {p}"))
        })
        .unwrap();
        assert!(reloaded.validate().is_empty());
        assert_eq!(reloaded.topology.num_routers(), 4);
        // Router-level generalization can only add rules, never lose the
        // original behaviour.
        assert!(reloaded.num_rules() >= net.num_rules());

        // The swap chain still verifies end to end.
        use aalwines::{Engine, Outcome, Verifier, VerifyOptions};
        let q = query::parse_query("<100S ip> [.#R1] . . <ip> 0").unwrap();
        let ans = Verifier::new(&reloaded).verify(&q, &VerifyOptions::default());
        assert!(
            matches!(ans.outcome, Outcome::Satisfied(_)),
            "{:?}",
            ans.outcome
        );
    }

    #[test]
    fn pfe_indirection_resolves() {
        let mapping = "1.1.1.1,R1:a.xml:r.xml:p.xml\n2.2.2.2,E1\n";
        let adj = r#"<isis-adjacency-information>
            <isis-adjacency>
              <interface-name>et-0/0/0.0</interface-name>
              <system-name>E1</system-name>
              <adjacency-state>Up</adjacency-state>
            </isis-adjacency>
        </isis-adjacency-information>"#;
        let route = r#"<forwarding-table-information><route-table>
            <rt-entry><mpls-label>200</mpls-label>
              <nh><nh-index>614</nh-index><nh-type>Pop</nh-type><weight>0x1</weight></nh>
            </rt-entry>
        </route-table></forwarding-table-information>"#;
        let pfe = r#"<pfe-next-hop-information>
            <pfe-nh><nh-index>614</nh-index><interface-name>et-0/0/0.0</interface-name></pfe-nh>
        </pfe-next-hop-information>"#;
        let store: Map<&str, &str> = [("a.xml", adj), ("r.xml", route), ("p.xml", pfe)]
            .into_iter()
            .collect();
        let net = network_from_isis(mapping, &|p| {
            store
                .get(p)
                .map(|s| s.to_string())
                .ok_or_else(|| format!("missing {p}"))
        })
        .unwrap();
        assert_eq!(net.topology.num_routers(), 2);
        assert!(net.num_rules() >= 1);
    }

    #[test]
    fn down_adjacencies_ignored() {
        let mapping = "1.1.1.1,R1:a.xml:r.xml:p.xml\n2.2.2.2,E1\n";
        let adj = r#"<isis-adjacency-information>
            <isis-adjacency>
              <interface-name>x</interface-name>
              <system-name>E1</system-name>
              <adjacency-state>Down</adjacency-state>
            </isis-adjacency>
        </isis-adjacency-information>"#;
        let route =
            r#"<forwarding-table-information><route-table/></forwarding-table-information>"#;
        let pfe = r#"<pfe-next-hop-information/>"#;
        let store: Map<&str, &str> = [("a.xml", adj), ("r.xml", route), ("p.xml", pfe)]
            .into_iter()
            .collect();
        let net = network_from_isis(mapping, &|p| {
            store
                .get(p)
                .map(|s| s.to_string())
                .ok_or_else(|| format!("missing {p}"))
        })
        .unwrap();
        assert_eq!(net.topology.num_links(), 0);
    }
}
