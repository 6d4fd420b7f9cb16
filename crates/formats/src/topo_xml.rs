//! The `topo.xml` topology format (Appendix A).
//!
//! A `<link>` whose `<sides>` name two `shared_interface`s denotes a
//! bidirectional physical link and yields two directed
//! [`netmodel`] links; a link carrying `directed="true"` yields only the
//! first-side → second-side direction. An optional `distance` attribute
//! (an extension of the original format) feeds the `Distance` quantity
//! and defaults to 1.

use crate::xml::{parse as parse_xml, Element, XmlError};
use netmodel::Topology;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Errors reading a format file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormatError {
    /// Malformed XML.
    Xml(XmlError),
    /// Structurally valid XML that does not describe a valid network.
    Semantic(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Xml(e) => write!(f, "{e}"),
            FormatError::Semantic(m) => write!(f, "format error: {m}"),
        }
    }
}

impl FormatError {
    /// The byte offset of the error in the source document, when the
    /// failure happened at the syntax level. Semantic errors (valid
    /// XML describing an invalid network) have no single offset.
    pub fn offset(&self) -> Option<usize> {
        match self {
            FormatError::Xml(e) => Some(e.pos),
            FormatError::Semantic(_) => None,
        }
    }
}

impl std::error::Error for FormatError {}

impl From<XmlError> for FormatError {
    fn from(e: XmlError) -> Self {
        FormatError::Xml(e)
    }
}

/// Serialize a topology to `topo.xml`.
///
/// Directed link pairs `u→v` / `v→u` over the same interface pair are
/// folded into one bidirectional `<link>`; unmatched directed links are
/// written with `directed="true"`.
pub fn write_topology(topo: &Topology) -> String {
    let mut routers = Element::new("routers");
    // Interfaces per router, collected from the links.
    let mut ifaces: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for r in topo.routers() {
        ifaces.entry(topo.router(r).name.clone()).or_default();
    }
    for l in topo.links() {
        let link = topo.link(l);
        ifaces
            .entry(topo.router(link.src).name.clone())
            .or_default()
            .push(link.src_if.clone());
        ifaces
            .entry(topo.router(link.dst).name.clone())
            .or_default()
            .push(link.dst_if.clone());
    }
    for (name, mut list) in ifaces {
        list.sort();
        list.dedup();
        let mut interfaces = Element::new("interfaces");
        for i in list {
            interfaces = interfaces.child(Element::new("interface").attr("name", &i));
        }
        routers = routers.child(Element::new("router").attr("name", &name).child(interfaces));
    }

    let mut links = Element::new("links");
    // Link ids per (src, dst, src_if, dst_if), in ascending order.
    let mut by_ends: HashMap<_, VecDeque<netmodel::LinkId>> = HashMap::new();
    for l in topo.links() {
        let a = topo.link(l);
        by_ends
            .entry((a.src, a.dst, a.src_if.as_str(), a.dst_if.as_str()))
            .or_default()
            .push_back(l);
    }
    let mut covered: Vec<bool> = vec![false; topo.num_links() as usize];
    for l in topo.links() {
        if covered[l.index()] {
            continue;
        }
        covered[l.index()] = true;
        let a = topo.link(l);
        // A reverse twin shares both routers and both interface names;
        // take the lowest uncovered one.
        let twins = by_ends.get_mut(&(a.dst, a.src, a.dst_if.as_str(), a.src_if.as_str()));
        let twin = twins.and_then(|ids| {
            while ids.front().is_some_and(|m| covered[m.index()]) {
                ids.pop_front();
            }
            ids.front().copied()
        });
        let mut link = Element::new("link").attr("distance", &a.distance.to_string());
        if let Some(t) = twin {
            covered[t.index()] = true;
        } else {
            link = link.attr("directed", "true");
        }
        let sides = Element::new("sides")
            .child(
                Element::new("shared_interface")
                    .attr("interface", &a.src_if)
                    .attr("router", &topo.router(a.src).name),
            )
            .child(
                Element::new("shared_interface")
                    .attr("interface", &a.dst_if)
                    .attr("router", &topo.router(a.dst).name),
            );
        links = links.child(link.child(sides));
    }

    Element::new("network").child(routers).child(links).to_xml()
}

/// Parse a `topo.xml` document into a topology.
pub fn parse_topology(doc: &str) -> Result<Topology, FormatError> {
    let root = parse_xml(doc)?;
    if root.name != "network" {
        return Err(FormatError::Semantic(format!(
            "expected <network> root, found <{}>",
            root.name
        )));
    }
    let mut topo = Topology::new();
    let routers = root
        .first_child("routers")
        .ok_or_else(|| FormatError::Semantic("missing <routers>".into()))?;
    for r in routers.children_named("router") {
        let name = r.require_attr("name")?;
        if topo.router_by_name(name).is_some() {
            return Err(FormatError::Semantic(format!(
                "duplicate router name {name:?}"
            )));
        }
        topo.add_router(name, None);
    }
    let links = root
        .first_child("links")
        .ok_or_else(|| FormatError::Semantic("missing <links>".into()))?;
    for link in links.children_named("link") {
        let sides = link
            .first_child("sides")
            .ok_or_else(|| FormatError::Semantic("<link> missing <sides>".into()))?;
        let mut ends = sides.children_named("shared_interface");
        let (a, b) = match (ends.next(), ends.next(), ends.next()) {
            (Some(a), Some(b), None) => (a, b),
            _ => {
                return Err(FormatError::Semantic(
                    "<sides> must contain exactly two shared_interface elements".into(),
                ))
            }
        };
        let resolve = |side: &Element| -> Result<(netmodel::RouterId, String), FormatError> {
            let rname = side.require_attr("router")?;
            let iface = side.require_attr("interface")?;
            let rid = topo
                .router_by_name(rname)
                .ok_or_else(|| FormatError::Semantic(format!("unknown router {rname:?}")))?;
            Ok((rid, iface.to_string()))
        };
        let (ra, ia) = resolve(a)?;
        let (rb, ib) = resolve(b)?;
        let distance: u64 = link
            .get_attr("distance")
            .map(|d| {
                d.parse()
                    .map_err(|_| FormatError::Semantic(format!("bad distance {d:?}")))
            })
            .transpose()?
            .unwrap_or(1);
        topo.add_link(ra, &ia, rb, &ib, distance);
        if link.get_attr("directed") != Some("true") {
            topo.add_link(rb, &ib, ra, &ia, distance);
        }
    }
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Topology {
        let mut t = Topology::new();
        let a = t.add_router("R0", None);
        let b = t.add_router("R3", None);
        t.add_link(a, "et-3/0/0.2", b, "et-1/3/0.2", 120);
        t.add_link(b, "et-1/3/0.2", a, "et-3/0/0.2", 120);
        // a directed-only link
        t.add_link(a, "lo9", b, "lo8", 5);
        t
    }

    #[test]
    fn round_trips_topology() {
        let t = sample();
        let text = write_topology(&t);
        let back = parse_topology(&text).unwrap();
        assert_eq!(back.num_routers(), t.num_routers());
        assert_eq!(back.num_links(), t.num_links());
        // Same multiset of link names.
        let mut a: Vec<String> = t.links().map(|l| t.link_name(l)).collect();
        let mut b: Vec<String> = back.links().map(|l| back.link_name(l)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Distances survive.
        for l in back.links() {
            assert!(back.link(l).distance == 120 || back.link(l).distance == 5);
        }
    }

    #[test]
    fn parses_appendix_example() {
        let doc = r#"<network>
          <routers>
            <router name="R0"><interfaces><interface name="ae1.11"/><interface name="ae5.0"/></interfaces></router>
            <router name="R3"><interfaces><interface name="et-1/3/0.2"/></interfaces></router>
          </routers>
          <links>
            <link>
              <sides>
                <shared_interface interface="et-3/0/0.2" router="R0"/>
                <shared_interface interface="et-1/3/0.2" router="R3"/>
              </sides>
            </link>
          </links>
        </network>"#;
        let t = parse_topology(doc).unwrap();
        assert_eq!(t.num_routers(), 2);
        assert_eq!(t.num_links(), 2, "undirected link yields both directions");
    }

    #[test]
    fn unknown_router_is_semantic_error() {
        let doc = r#"<network><routers/><links>
            <link><sides>
              <shared_interface interface="a" router="NOPE"/>
              <shared_interface interface="b" router="NOPE2"/>
            </sides></link></links></network>"#;
        assert!(matches!(parse_topology(doc), Err(FormatError::Semantic(_))));
    }
}
