//! Netlist synthesis from TLN-family dynamical graphs (paper §4.5).
//!
//! "We randomly generate 1000 valid GmC-TLN DGs and generate SPICE netlists
//! from these models with a simple algorithm" — this is that algorithm.
//! Every `V`/`I` node becomes a GmC integrator (grounded `Cint` capacitor
//! plus, when the node carries a loss self edge, a grounded `Gint`
//! conductance); every coupling edge becomes the pair of transconductors
//! `Gm1`/`Gm2` (with the `Em` edge type's sampled `ws`/`wt` gains); input
//! nodes become current sources with their waveform lambdas applied to
//! `time` as closed-form expressions.

use crate::netlist::{Element, Netlist, Waveform};
use ark_core::{Graph, Language, Value};
use ark_expr::Expr;
use std::fmt;

/// An error during netlist synthesis.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// A node type outside the TLN family was encountered.
    UnsupportedNode {
        /// Node name.
        node: String,
        /// Its type.
        ty: String,
    },
    /// An edge type outside the TLN family was encountered.
    UnsupportedEdge {
        /// Edge name.
        edge: String,
        /// Its type.
        ty: String,
    },
    /// A required attribute is missing or has the wrong kind.
    BadAttr {
        /// Entity name.
        entity: String,
        /// Attribute name.
        attr: String,
    },
    /// An input waveform lambda could not be compiled.
    BadWaveform(String),
    /// A node's initial value is unset.
    MissingInit(String),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::UnsupportedNode { node, ty } => {
                write!(f, "cannot synthesize node `{node}` of type `{ty}`")
            }
            SynthError::UnsupportedEdge { edge, ty } => {
                write!(f, "cannot synthesize edge `{edge}` of type `{ty}`")
            }
            SynthError::BadAttr { entity, attr } => {
                write!(f, "missing or non-numeric attribute {entity}.{attr}")
            }
            SynthError::BadWaveform(m) => write!(f, "cannot compile waveform: {m}"),
            SynthError::MissingInit(n) => write!(f, "node `{n}` has no initial value"),
        }
    }
}

impl std::error::Error for SynthError {}

fn num_attr(graph: &Graph, entity: &str, attr: &str) -> Result<f64, SynthError> {
    graph
        .attr_value(entity, attr)
        .and_then(Value::as_real)
        .ok_or_else(|| SynthError::BadAttr {
            entity: entity.into(),
            attr: attr.into(),
        })
}

fn waveform(graph: &Graph, entity: &str) -> Result<Waveform, SynthError> {
    let lam = graph
        .attr_value(entity, "fn")
        .and_then(Value::as_lambda)
        .ok_or_else(|| SynthError::BadAttr {
            entity: entity.into(),
            attr: "fn".into(),
        })?;
    let body = lam
        .apply(&[Expr::Time])
        .ok_or_else(|| SynthError::BadWaveform("waveform lambda must take one argument".into()))?;
    Waveform::from_expr(&body).map_err(|e| SynthError::BadWaveform(e.to_string()))
}

/// Edge gains `ws`/`wt`: sampled attributes on `Em` edges, 1.0 on plain `E`.
fn edge_gains(graph: &Graph, edge_name: &str) -> (f64, f64) {
    let ws = graph
        .attr_value(edge_name, "ws")
        .and_then(Value::as_real)
        .unwrap_or(1.0);
    let wt = graph
        .attr_value(edge_name, "wt")
        .and_then(Value::as_real)
        .unwrap_or(1.0);
    (ws, wt)
}

/// Synthesize a GmC netlist from a TLN-family dynamical graph. Supports the
/// `tln` and `gmc_tln` languages (and any further derivation of their
/// types).
///
/// # Errors
///
/// [`SynthError`] for types outside the TLN family or malformed attributes.
pub fn synthesize(lang: &Language, graph: &Graph) -> Result<Netlist, SynthError> {
    let mut nl = Netlist::new();
    // Integrators: one netlist node per stateful DG node.
    for (id, node) in graph.nodes() {
        if lang.node_is_a(&node.ty, "V") || lang.node_is_a(&node.ty, "I") {
            let n = nl.node(&node.name);
            let cap_attr = if lang.node_is_a(&node.ty, "V") {
                "c"
            } else {
                "l"
            };
            nl.add(Element::Capacitor {
                node: n,
                c: num_attr(graph, &node.name, cap_attr)?,
            });
            let v0 = node.inits.first().copied().flatten();
            nl.set_initial(
                n,
                v0.ok_or_else(|| SynthError::MissingInit(node.name.clone()))?,
            );
            // Loss conductance applies when the node carries a self edge
            // (the self production rule's circuit realization).
            if !graph.self_edges(id).is_empty() {
                let loss = if lang.node_is_a(&node.ty, "V") {
                    "g"
                } else {
                    "r"
                };
                let g = num_attr(graph, &node.name, loss)?;
                if g != 0.0 {
                    nl.add(Element::Conductance { node: n, g });
                }
            }
        } else if lang.node_is_a(&node.ty, "InpV") || lang.node_is_a(&node.ty, "InpI") {
            // Sources are synthesized at their outgoing edges below.
        } else {
            return Err(SynthError::UnsupportedNode {
                node: node.name.clone(),
                ty: node.ty.clone(),
            });
        }
    }
    // Couplings and sources.
    for (_, edge) in graph.edges() {
        if !lang.edge_is_a(&edge.ty, "E") {
            return Err(SynthError::UnsupportedEdge {
                edge: edge.name.clone(),
                ty: edge.ty.clone(),
            });
        }
        if !edge.on || edge.is_self() {
            continue; // self edges already handled as loss conductances
        }
        let src = graph.node(edge.src);
        let dst = graph.node(edge.dst);
        let (ws, wt) = edge_gains(graph, &edge.name);
        let src_stateful = lang.node_is_a(&src.ty, "V") || lang.node_is_a(&src.ty, "I");
        if src_stateful {
            let s = nl.node(&src.name);
            let t = nl.node(&dst.name);
            // dQs/dt gets −ws·var(t); dQt/dt gets +wt·var(s).
            nl.add(Element::Vccs {
                out: s,
                ctrl: t,
                gm: -ws,
            });
            nl.add(Element::Vccs {
                out: t,
                ctrl: s,
                gm: wt,
            });
        } else if lang.node_is_a(&src.ty, "InpI") {
            let t = nl.node(&dst.name);
            let g = num_attr(graph, &src.name, "g")?;
            let w = waveform(graph, &src.name)?;
            if lang.node_is_a(&dst.ty, "V") {
                // wt·(fn − g·v_t): scaled source + source conductance.
                nl.add(Element::CurrentSource {
                    node: t,
                    waveform: w.scaled(wt),
                });
                nl.add(Element::Conductance { node: t, g: wt * g });
            } else {
                // Into an I node: wt·(fn − v_t)/g on the l-capacitor.
                nl.add(Element::CurrentSource {
                    node: t,
                    waveform: w.scaled(wt / g),
                });
                nl.add(Element::Conductance { node: t, g: wt / g });
            }
        } else if lang.node_is_a(&src.ty, "InpV") {
            let t = nl.node(&dst.name);
            let r = num_attr(graph, &src.name, "r")?;
            let w = waveform(graph, &src.name)?;
            if lang.node_is_a(&dst.ty, "V") {
                // wt·(fn − v_t)/r.
                nl.add(Element::CurrentSource {
                    node: t,
                    waveform: w.scaled(wt / r),
                });
                nl.add(Element::Conductance { node: t, g: wt / r });
            } else {
                // wt·(fn − r·v_t).
                nl.add(Element::CurrentSource {
                    node: t,
                    waveform: w.scaled(wt),
                });
                nl.add(Element::Conductance { node: t, g: wt * r });
            }
        } else {
            return Err(SynthError::UnsupportedEdge {
                edge: edge.name.clone(),
                ty: edge.ty.clone(),
            });
        }
    }
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_paradigms::tln::{linear_tline, tln_language, TlineConfig};

    #[test]
    fn linear_line_synthesizes() {
        let lang = tln_language();
        let g = linear_tline(&lang, 4, &TlineConfig::default(), 0).unwrap();
        let nl = synthesize(&lang, &g).unwrap();
        // One netlist node per stateful DG node (source is folded into
        // elements): IN_V + 4 I + 4 V = 9.
        assert_eq!(nl.num_nodes(), 9);
        let card = nl.to_spice();
        assert!(card.contains("IN_V"));
        assert!(card.contains("PULSE"));
    }

    /// One current source `src` (waveform lambda `fn_src`) feeding one V
    /// node.
    fn source_graph(lang: &Language, fn_src: &str) -> Graph {
        use ark_core::func::GraphBuilder;
        let mut b = GraphBuilder::new(lang, 0);
        b.node("src", "InpI").unwrap();
        b.set_attr("src", "fn", ark_expr::parse_lambda(fn_src).unwrap())
            .unwrap();
        b.set_attr("src", "g", 1.0).unwrap();
        b.node("v", "V").unwrap();
        b.set_attr("v", "c", 1e-9).unwrap();
        b.set_attr("v", "g", 0.0).unwrap();
        b.edge("e", "E", "src", "v").unwrap();
        b.finish().unwrap()
    }

    /// Waveform lambdas are checked when the netlist is synthesized, not
    /// when a transient first evaluates them.
    #[test]
    fn bad_waveform_lambdas_fail_at_synthesis() {
        let lang = tln_language();
        assert!(synthesize(&lang, &source_graph(&lang, "lambd(t): pulse(t, 0, 2e-8)")).is_ok());
        for fn_src in [
            "lambd(t): var(x) * t",
            "lambd(t): t + u",
            "lambd(t): mystery(t)",
        ] {
            let g = source_graph(&lang, fn_src);
            assert!(
                matches!(synthesize(&lang, &g), Err(SynthError::BadWaveform(_))),
                "{fn_src}"
            );
        }
    }

    #[test]
    fn scaled_source_is_bit_identical_to_scaling_the_samples() {
        let lang = tln_language();
        let g = source_graph(
            &lang,
            "lambd(t): smoothstep(t, 1e-8, 3e-9) * 0.7 + pulse(t, 0, 2e-8)",
        );
        let w = waveform(&g, "src").unwrap();
        for amp in [1.0, 0.3, 1.0 / 7.0, -2.5e-3] {
            let scaled = w.scaled(amp);
            for k in 0..50 {
                let t = k as f64 * 7.3e-10;
                assert_eq!(
                    scaled.at(t).to_bits(),
                    (amp * w.at(t)).to_bits(),
                    "amp {amp} t {t}"
                );
            }
        }
    }

    #[test]
    fn unsupported_language_rejected() {
        use ark_core::func::GraphBuilder;
        use ark_paradigms::obc::obc_language;
        let lang = obc_language();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("a", "Osc").unwrap();
        let g = b.finish().unwrap();
        assert!(matches!(
            synthesize(&lang, &g),
            Err(SynthError::UnsupportedNode { .. })
        ));
    }
}
