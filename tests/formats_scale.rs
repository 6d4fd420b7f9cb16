//! Appendix-A round trip at scale: the smoke scale tier (~29k rules,
//! ~14k labels) written as `topo.xml`/`route.xml` and loaded back.
//!
//! No timing assertion: ingestion that is quadratic in the label count
//! (as when the label table was cloned once per rule) takes minutes
//! here, so these tests double as a complexity tripwire.

use formats::xml::{parse as parse_xml, Element};
use netmodel::{LabelId, Network, Op, RoutingEntry};
use std::collections::HashSet;
use std::sync::OnceLock;
use topogen::scale::{scale_tier, ScaleConfig};

fn smoke_tier() -> &'static Network {
    static NET: OnceLock<Network> = OnceLock::new();
    NET.get_or_init(|| scale_tier(&ScaleConfig::smoke()).net)
}

/// `(name, kind)` of every label in the order of its first appearance
/// in `route.xml`: each destination's label, then its action labels.
/// That is the id order the parser assigns.
fn labels_in_document_order(route_xml: &str) -> Vec<(String, String)> {
    fn walk(el: &Element, seen: &mut HashSet<String>, out: &mut Vec<(String, String)>) {
        if el.name == "destination" || el.name == "action" {
            if let Some(name) = el.get_attr("label") {
                if seen.insert(name.to_string()) {
                    out.push((name.to_string(), el.get_attr("kind").unwrap().to_string()));
                }
            }
        }
        for c in &el.children {
            walk(c, seen, out);
        }
    }
    let mut out = Vec::new();
    walk(
        &parse_xml(route_xml).unwrap(),
        &mut HashSet::new(),
        &mut out,
    );
    out
}

/// The document tree with `<routing>`s sorted by router and each
/// router's `<destination>`s by (interface, label). `write_routes`
/// orders both by id, and a round trip renumbers routers (`topo.xml`
/// lists them by name) and labels (numbered in document order); nothing
/// else may move.
fn canonical(route_xml: &str) -> Element {
    fn sort(el: &mut Element) {
        let key = |e: &Element| {
            let attr = |k| e.get_attr(k).unwrap_or_default().to_string();
            (attr("for"), attr("from"), attr("label"))
        };
        if el.name == "routings" || el.name == "destinations" {
            el.children.sort_by_key(key);
        }
        el.children.iter_mut().for_each(sort);
    }
    let mut root = parse_xml(route_xml).unwrap();
    sort(&mut root);
    root
}

#[test]
fn smoke_tier_topology_round_trips_byte_identically() {
    let text = formats::write_topology(&smoke_tier().topology);
    let back = formats::parse_topology(&text).unwrap();
    assert_eq!(formats::write_topology(&back), text);
}

#[test]
fn smoke_tier_round_trips_through_xml() {
    let net = smoke_tier();
    let topo_xml = formats::write_topology(&net.topology);
    let route_xml = formats::write_routes(net);
    let back = aalwines_suite::load_dataplane(&topo_xml, &route_xml, None, false).unwrap();

    // Same links under the same ids, so `out` links compare directly.
    assert_eq!(back.topology.num_links(), net.topology.num_links());
    for l in net.topology.links() {
        assert_eq!(back.topology.link_name(l), net.topology.link_name(l));
    }
    assert_eq!(back.num_rules(), net.num_rules());

    let expected = labels_in_document_order(&route_xml);
    assert_eq!(back.labels.len(), expected.len());
    for (i, (name, kind)) in expected.iter().enumerate() {
        let id = LabelId(i as u32);
        assert_eq!(back.labels.name(id), name, "label {i}");
        let original = net.labels.get(name).unwrap();
        assert_eq!(back.labels.kind(id), net.labels.kind(original), "{name}");
        let written = ["mpls", "smpls", "ip"][back.labels.kind(id) as usize];
        assert_eq!(kind, written, "{name}");
    }

    let to_back = |id: LabelId| back.labels.get(net.labels.name(id)).unwrap();
    let translate = |op: &Op| match *op {
        Op::Swap(x) => Op::Swap(to_back(x)),
        Op::Push(x) => Op::Push(to_back(x)),
        Op::Pop => Op::Pop,
    };
    assert_eq!(back.routing_keys().count(), net.routing_keys().count());
    for (l, lab) in net.routing_keys() {
        let groups: Vec<Vec<RoutingEntry>> = net
            .groups(l, lab)
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|e| {
                        RoutingEntry::new(
                            e.out,
                            e.ops.as_slice().iter().map(translate).collect::<Vec<_>>(),
                        )
                    })
                    .collect()
            })
            .collect();
        assert_eq!(back.groups(l, to_back(lab)), groups.as_slice());
    }

    assert_eq!(
        canonical(&formats::write_routes(&back)),
        canonical(&route_xml)
    );
}
