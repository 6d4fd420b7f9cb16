//! A minimal, strict XML reader/writer covering the subset used by the
//! AalWiNes input formats: elements, attributes (double-quoted),
//! self-closing tags, `<!-- comments -->`, an optional `<?xml …?>`
//! prolog, and text content (which the formats do not use but the parser
//! tolerates and records).
//!
//! Not supported (rejected with an error): namespaces beyond literal
//! names, DOCTYPE, CDATA, processing instructions other than the prolog,
//! and entity references other than `&lt; &gt; &amp; &quot; &apos;`.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed XML element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order (BTreeMap for deterministic output).
    pub attrs: BTreeMap<String, String>,
    /// Child elements, in order.
    pub children: Vec<Element>,
    /// Concatenated text content directly inside this element.
    pub text: String,
}

impl Element {
    /// A new element with no attributes or children.
    pub fn new(name: &str) -> Self {
        Element {
            name: name.to_string(),
            attrs: BTreeMap::new(),
            children: Vec::new(),
            text: String::new(),
        }
    }

    /// Builder: set an attribute.
    pub fn attr(mut self, key: &str, value: &str) -> Self {
        self.attrs.insert(key.to_string(), value.to_string());
        self
    }

    /// Builder: append a child.
    pub fn child(mut self, c: Element) -> Self {
        self.children.push(c);
        self
    }

    /// Attribute lookup.
    pub fn get_attr(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).map(|s| s.as_str())
    }

    /// Required attribute lookup.
    pub fn require_attr(&self, key: &str) -> Result<&str, XmlError> {
        self.get_attr(key).ok_or_else(|| XmlError {
            pos: 0,
            msg: format!("<{}> missing required attribute {key:?}", self.name),
        })
    }

    /// All children with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// The first child with the given tag name.
    pub fn first_child(&self, name: &str) -> Option<&Element> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Serialize with 2-space indentation.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape(v));
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        if !self.text.is_empty() {
            out.push_str(&escape(&self.text));
        }
        if !self.children.is_empty() {
            out.push('\n');
            for c in &self.children {
                c.write_into(out, depth + 1);
            }
            out.push_str(&pad);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }
}

/// An XML parse error with byte position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset into the document.
    pub pos: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for XmlError {}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// The entity references this subset decodes.
const ENTITIES: [(&str, char); 5] = [
    ("&lt;", '<'),
    ("&gt;", '>'),
    ("&amp;", '&'),
    ("&quot;", '"'),
    ("&apos;", '\''),
];

/// Decode entity references in `s`, which starts at byte `base` of the
/// document, in one left-to-right pass; any `&` that does not begin one
/// of [`ENTITIES`] is an error at its own position.
fn unescape(s: &str, base: usize) -> Result<Cow<'_, str>, XmlError> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let (entity, ch) = ENTITIES
            .iter()
            .find(|(entity, _)| rest.starts_with(entity))
            .ok_or_else(|| XmlError {
                pos: base + s.len() - rest.len(),
                msg: "unsupported entity reference (only &lt; &gt; &amp; &quot; &apos;)".into(),
            })?;
        out.push(*ch);
        rest = &rest[entity.len()..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

struct P<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError {
            pos: self.i,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && (self.s[self.i] as char).is_whitespace() {
            self.i += 1;
        }
    }

    fn starts_with(&self, pat: &str) -> bool {
        self.s[self.i..].starts_with(pat.as_bytes())
    }

    fn skip_prolog_and_comments(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?xml") {
                let end = self.find("?>")?;
                self.i = end + 2;
            } else if self.starts_with("<!--") {
                let end = self.find("-->")?;
                self.i = end + 3;
            } else {
                return Ok(());
            }
        }
    }

    fn find(&self, pat: &str) -> Result<usize, XmlError> {
        let hay = &self.s[self.i..];
        hay.windows(pat.len())
            .position(|w| w == pat.as_bytes())
            .map(|p| self.i + p)
            .ok_or_else(|| self.err(format!("expected {pat:?}")))
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.i;
        while self.i < self.s.len() {
            let c = self.s[self.i] as char;
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | ':' | '.') {
                self.i += 1;
            } else {
                break;
            }
        }
        if self.i == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.i]).into_owned())
    }

    fn element(&mut self) -> Result<Element, XmlError> {
        self.skip_prolog_and_comments()?;
        if !self.starts_with("<") {
            return Err(self.err("expected '<'"));
        }
        self.i += 1;
        let name = self.name()?;
        let mut el = Element::new(&name);
        loop {
            self.skip_ws();
            if self.starts_with("/>") {
                self.i += 2;
                return Ok(el);
            }
            if self.starts_with(">") {
                self.i += 1;
                break;
            }
            // attribute
            let key = self.name()?;
            self.skip_ws();
            if !self.starts_with("=") {
                return Err(self.err("expected '=' after attribute name"));
            }
            self.i += 1;
            self.skip_ws();
            if !self.starts_with("\"") {
                return Err(self.err("expected '\"' to open attribute value"));
            }
            self.i += 1;
            let end = self.find("\"")?;
            let raw = String::from_utf8_lossy(&self.s[self.i..end]);
            let value = unescape(&raw, self.i)?.into_owned();
            self.i = end + 1;
            el.attrs.insert(key, value);
        }
        // content
        loop {
            // text up to next '<'
            let lt = self.find("<")?;
            let raw = String::from_utf8_lossy(&self.s[self.i..lt]);
            let text = raw.trim();
            if !text.is_empty() {
                let start = self.i + raw.len() - raw.trim_start().len();
                el.text.push_str(&unescape(text, start)?);
            }
            self.i = lt;
            if self.starts_with("<!--") {
                let end = self.find("-->")?;
                self.i = end + 3;
                continue;
            }
            if self.starts_with("</") {
                self.i += 2;
                let close = self.name()?;
                if close != el.name {
                    return Err(self.err(format!(
                        "mismatched closing tag </{close}> for <{}>",
                        el.name
                    )));
                }
                self.skip_ws();
                if !self.starts_with(">") {
                    return Err(self.err("expected '>' after closing tag"));
                }
                self.i += 1;
                return Ok(el);
            }
            el.children.push(self.element()?);
        }
    }
}

/// Parse a document into its root element.
pub fn parse(doc: &str) -> Result<Element, XmlError> {
    let mut p = P {
        s: doc.as_bytes(),
        i: 0,
    };
    let root = p.element()?;
    p.skip_prolog_and_comments()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_appendix_shape() {
        let doc = r#"<network>
            <routers>
                <router name="R0">
                    <interfaces><interface name="ae1.11"/><interface name="ae5.0"/></interfaces>
                </router>
            </routers>
            <links>
                <sides>
                    <shared_interface interface="et-3/0/0.2" router="R0"/>
                    <shared_interface interface="et-1/3/0.2" router="R3"/>
                </sides>
            </links>
        </network>"#;
        let root = parse(doc).unwrap();
        assert_eq!(root.name, "network");
        let router = root
            .first_child("routers")
            .unwrap()
            .first_child("router")
            .unwrap();
        assert_eq!(router.get_attr("name"), Some("R0"));
        let ifaces: Vec<&str> = router
            .first_child("interfaces")
            .unwrap()
            .children_named("interface")
            .map(|e| e.get_attr("name").unwrap())
            .collect();
        assert_eq!(ifaces, ["ae1.11", "ae5.0"]);
        let sides = root
            .first_child("links")
            .unwrap()
            .first_child("sides")
            .unwrap();
        assert_eq!(sides.children.len(), 2);
    }

    #[test]
    fn round_trips() {
        let e = Element::new("routes").child(
            Element::new("routing").attr("for", "R0").child(
                Element::new("destination")
                    .attr("from", "ae1.11")
                    .attr("label", "$300292"),
            ),
        );
        let text = e.to_xml();
        let back = parse(&text).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn escapes_special_characters() {
        let e = Element::new("x").attr("v", "a<b&\"c\"");
        let back = parse(&e.to_xml()).unwrap();
        assert_eq!(back.get_attr("v"), Some("a<b&\"c\""));
    }

    #[test]
    fn decodes_entities_in_one_pass() {
        let root = parse(r#"<x v="&amp;lt;&quot;&apos;&gt;">a &amp;amp; b</x>"#).unwrap();
        assert_eq!(root.get_attr("v"), Some("&lt;\"'>"));
        assert_eq!(root.text, "a &amp; b");
    }

    #[test]
    fn rejects_unknown_entities_and_bare_ampersands() {
        for (doc, at) in [
            (r#"<x v="a&foo;b"/>"#, 7),
            (r#"<x v="a & b"/>"#, 8),
            ("<x>  fish &chips</x>", 10),
        ] {
            let e = parse(doc).unwrap_err();
            assert_eq!(e.pos, at, "{doc}");
            assert_eq!(&doc[at..at + 1], "&");
        }
    }

    #[test]
    fn accepts_prolog_and_comments() {
        let doc = "<?xml version=\"1.0\"?>\n<!-- hi -->\n<a><!-- inner --><b/></a>";
        let root = parse(doc).unwrap();
        assert_eq!(root.name, "a");
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn rejects_mismatched_tags() {
        assert!(parse("<a><b></a></b>").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn captures_text_content() {
        let root = parse("<a>hello <b/> world</a>").unwrap();
        assert_eq!(root.text, "helloworld"); // trimmed per segment
        assert_eq!(root.children.len(), 1);
    }
}
