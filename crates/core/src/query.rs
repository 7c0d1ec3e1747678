//! The typed query vocabulary of the unified session surface.
//!
//! The paper's model serves *queries* against maintained sketch state
//! — connectivity, component counts, forest weight, matching size,
//! cut bounds — and treats answering as a protocol phase with a round
//! cost, not a host-side peek. [`QueryRequest`] names those questions
//! once for every maintainer; [`QueryResponse`] carries the answers.
//! A maintainer's [`Maintain::answer`](crate::Maintain::answer) is the
//! one place its vocabulary is written: the questions it answers,
//! charging their rounds and communication through the [`MpcContext`],
//! and `None` for the rest, with the context untouched.
//!
//! The design rule for charges: structures that *maintain* their
//! solution (the paper's contribution) answer in `O(1)` rounds —
//! routing the question to a shard and the answer back, or one
//! label/output sort for whole-solution reports (Section 1.1:
//! "reporting the connected components can be easily done by sorting
//! the labels"). Recompute-on-read structures (the baselines, the
//! dynamic k-connectivity peel) pay their genuine `Θ(log n)` or
//! `Θ(k log n)` recomputation rounds. The asymmetry is the point of
//! the comparison, and the query plane makes it measurable: every
//! maintained labelling answers the four connectivity questions
//! through [`answer_maintained`].

use crate::session::ensure_vertex_in;
use mpc_graph::ids::{Edge, VertexId};
use mpc_sim::{MpcContext, MpcStreamError};

/// The uniform "this maintainer cannot serve this query" error:
/// what `Session::ask` returns when a maintainer's
/// [`Maintain::answer`](crate::Maintain::answer) declines (returns
/// `None`).
pub fn unsupported_query(maintainer: &str, query: &QueryRequest) -> MpcStreamError {
    MpcStreamError::Unsupported(format!("{maintainer} cannot answer {query}"))
}

/// Component count of a canonical labelling (every component labelled
/// by its minimum vertex id, the workspace-wide convention): the
/// number of self-labelled vertices. The shared helper behind every
/// label-based `ComponentCount` answer.
pub fn canonical_component_count(labels: &[VertexId]) -> u64 {
    labels
        .iter()
        .enumerate()
        .filter(|&(v, &c)| v as u32 == c)
        .count() as u64
}

/// The maintained-solution answers to the four connectivity questions,
/// read off a canonical labelling: `Connected` and `ComponentOf`
/// route the question to the vertex's shard and the answer back (one
/// exchange), `ComponentCount` sorts the labels (Section 1.1) and
/// `SpanningForest` sorts the forest's edges into the output
/// placement (Section 1.2). `forest` runs only for that question.
/// `None`, with `ctx` untouched, for every other question.
///
/// # Errors
///
/// [`MpcStreamError::InvalidBatch`] for a vertex outside the
/// labelling, before any charge.
pub fn answer_maintained(
    query: &QueryRequest,
    labels: &[VertexId],
    forest: impl FnOnce() -> Vec<Edge>,
    ctx: &mut MpcContext,
) -> Option<Result<QueryResponse, MpcStreamError>> {
    Some(match *query {
        QueryRequest::Connected(u, v) => ensure_vertex_in(u.max(v), labels.len()).map(|()| {
            ctx.exchange(2);
            QueryResponse::Bool(labels[u as usize] == labels[v as usize])
        }),
        QueryRequest::ComponentOf(v) => ensure_vertex_in(v, labels.len()).map(|()| {
            ctx.exchange(2);
            QueryResponse::Vertex(labels[v as usize])
        }),
        QueryRequest::ComponentCount => {
            ctx.sort(labels.len() as u64);
            Ok(QueryResponse::Count(canonical_component_count(labels)))
        }
        QueryRequest::SpanningForest => {
            let forest = forest();
            ctx.sort(2 * forest.len() as u64);
            Ok(QueryResponse::Edges(forest))
        }
        _ => return None,
    })
}

/// A typed question against a maintainer's current state.
///
/// Not every maintainer answers every query; `Session::ask_all`
/// fans a request to every maintainer and collects the answers, and
/// `Session::ask` returns `Unsupported` for a question outside the
/// maintainer's vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRequest {
    /// Are `u` and `v` in the same connected component?
    Connected(VertexId, VertexId),
    /// The component id of a vertex.
    ComponentOf(VertexId),
    /// Number of connected components.
    ComponentCount,
    /// The maintained spanning forest (or certificate forest).
    SpanningForest,
    /// Total weight of the maintained (exact or approximate) minimum
    /// spanning forest.
    ForestWeight,
    /// Size of the maintained (or estimated) matching.
    MatchingSize,
    /// The edges of the maintained matching.
    MatchingEdges,
    /// The best lower bound on the global minimum cut (exact below
    /// the certificate resolution `k`).
    MinCutLowerBound,
    /// Is the graph bipartite?
    IsBipartite,
}

impl std::fmt::Display for QueryRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryRequest::Connected(u, v) => write!(f, "connected({u}, {v})"),
            QueryRequest::ComponentOf(v) => write!(f, "component_of({v})"),
            QueryRequest::ComponentCount => write!(f, "component_count"),
            QueryRequest::SpanningForest => write!(f, "spanning_forest"),
            QueryRequest::ForestWeight => write!(f, "forest_weight"),
            QueryRequest::MatchingSize => write!(f, "matching_size"),
            QueryRequest::MatchingEdges => write!(f, "matching_edges"),
            QueryRequest::MinCutLowerBound => write!(f, "min_cut_lower_bound"),
            QueryRequest::IsBipartite => write!(f, "is_bipartite"),
        }
    }
}

/// Rounds and communication one maintainer consumed answering one
/// [`QueryRequest`] through the session's query plane — the
/// query-side sibling of `BatchReport`. Every `Session::ask` /
/// `Session::ask_all` answer is charged against the cluster, and this
/// report is its receipt. It holds the request itself, so writing a
/// receipt renders nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryReport {
    /// Name of the maintainer that answered.
    pub maintainer: &'static str,
    /// The request it answered.
    pub query: QueryRequest,
    /// Rounds charged while answering.
    pub rounds: u64,
    /// Words communicated while answering.
    pub words: u64,
}

impl std::fmt::Display for QueryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} answered in {} rounds, {} words",
            self.maintainer, self.query, self.rounds, self.words
        )
    }
}

/// A typed answer to a [`QueryRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// A yes/no answer (`Connected`, `IsBipartite`).
    Bool(bool),
    /// A cardinality (`ComponentCount`, `MatchingSize`).
    Count(u64),
    /// A vertex id (`ComponentOf`).
    Vertex(VertexId),
    /// A (possibly approximate) weight (`ForestWeight`).
    Weight(f64),
    /// An edge list (`SpanningForest`, `MatchingEdges`).
    Edges(Vec<Edge>),
    /// A cut bound (`MinCutLowerBound`): every cut has at least
    /// `lower` edges, and `exact` says whether the bound is the true
    /// minimum (it is whenever the cut is below the certificate's
    /// resolution).
    MinCut {
        /// The lower bound.
        lower: u64,
        /// Whether the bound is exact.
        exact: bool,
    },
}

impl QueryResponse {
    /// The boolean answer, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            QueryResponse::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The cardinality answer, if this is one.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            QueryResponse::Count(c) => Some(*c),
            _ => None,
        }
    }

    /// The vertex answer, if this is one.
    pub fn as_vertex(&self) -> Option<VertexId> {
        match self {
            QueryResponse::Vertex(v) => Some(*v),
            _ => None,
        }
    }

    /// The weight answer, if this is one.
    pub fn as_weight(&self) -> Option<f64> {
        match self {
            QueryResponse::Weight(w) => Some(*w),
            _ => None,
        }
    }

    /// The edge-list answer, if this is one.
    pub fn as_edges(&self) -> Option<&[Edge]> {
        match self {
            QueryResponse::Edges(es) => Some(es),
            _ => None,
        }
    }

    /// The cut-bound answer as `(lower, exact)`, if this is one.
    pub fn as_min_cut(&self) -> Option<(u64, bool)> {
        match self {
            QueryResponse::MinCut { lower, exact } => Some((*lower, *exact)),
            _ => None,
        }
    }
}

impl std::fmt::Display for QueryResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryResponse::Bool(b) => write!(f, "{b}"),
            QueryResponse::Count(c) => write!(f, "{c}"),
            QueryResponse::Vertex(v) => write!(f, "vertex {v}"),
            QueryResponse::Weight(w) => write!(f, "{w:.3}"),
            QueryResponse::Edges(es) => write!(f, "{} edges", es.len()),
            QueryResponse::MinCut { lower, exact } => {
                if *exact {
                    write!(f, "min cut = {lower}")
                } else {
                    write!(f, "min cut >= {lower}")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_render_their_arguments() {
        assert_eq!(QueryRequest::Connected(0, 2).to_string(), "connected(0, 2)");
        assert_eq!(QueryRequest::ComponentOf(7).to_string(), "component_of(7)");
        for q in [
            QueryRequest::ComponentCount,
            QueryRequest::SpanningForest,
            QueryRequest::ForestWeight,
            QueryRequest::MatchingSize,
            QueryRequest::MatchingEdges,
            QueryRequest::MinCutLowerBound,
            QueryRequest::IsBipartite,
        ] {
            assert!(!q.to_string().is_empty());
        }
    }

    #[test]
    fn receipts_render_their_request() {
        let report = QueryReport {
            maintainer: "agm-baseline",
            query: QueryRequest::Connected(0, 1),
            rounds: 9,
            words: 40,
        };
        assert_eq!(
            report.to_string(),
            "agm-baseline: connected(0, 1) answered in 9 rounds, 40 words"
        );
    }

    #[test]
    fn response_accessors_are_type_checked() {
        assert_eq!(QueryResponse::Bool(true).as_bool(), Some(true));
        assert_eq!(QueryResponse::Bool(true).as_count(), None);
        assert_eq!(QueryResponse::Count(4).as_count(), Some(4));
        assert_eq!(QueryResponse::Vertex(3).as_vertex(), Some(3));
        assert_eq!(QueryResponse::Weight(1.5).as_weight(), Some(1.5));
        let es = QueryResponse::Edges(vec![Edge::new(0, 1)]);
        assert_eq!(es.as_edges().map(<[Edge]>::len), Some(1));
        assert_eq!(es.as_min_cut(), None);
        let mc = QueryResponse::MinCut {
            lower: 2,
            exact: false,
        };
        assert_eq!(mc.as_min_cut(), Some((2, false)));
    }

    #[test]
    fn responses_display_compactly() {
        assert_eq!(QueryResponse::Bool(false).to_string(), "false");
        assert_eq!(QueryResponse::Count(9).to_string(), "9");
        assert_eq!(QueryResponse::Vertex(1).to_string(), "vertex 1");
        assert_eq!(QueryResponse::Weight(2.0).to_string(), "2.000");
        assert_eq!(
            QueryResponse::Edges(vec![Edge::new(0, 1)]).to_string(),
            "1 edges"
        );
        assert_eq!(
            QueryResponse::MinCut {
                lower: 2,
                exact: true
            }
            .to_string(),
            "min cut = 2"
        );
        assert_eq!(
            QueryResponse::MinCut {
                lower: 3,
                exact: false
            }
            .to_string(),
            "min cut >= 3"
        );
    }
}
