//! The four workloads: what each client sends, round by round, generated
//! from the seed. The library under test only ever sees the generated graph
//! and query texts.

use crate::util::SplitMix64;
use pathalg::algebra::ops::recursive::PathSemantics;
use pathalg::graph::generator::snb::SnbConfig;
use pathalg::parser::{parse_surface, QuerySurface};

/// Persons of every workload's SNB-shaped graph (30 000 nodes, 70 000 edges).
pub const PERSONS: usize = 10_000;

/// Per-request path quota of every workload's service. The 250 000-path
/// default refuses the `bulk_drain` and `reach_target` queries.
pub const QUOTA_PATHS: usize = 2_000_000;

pub const DEFAULT_SEED: u64 = 11;

/// The query shapes the workloads are built from. Anchored templates take a
/// person name; the drains take none.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Template {
    /// Source-anchored sliced `:Knows+` (lazy CSR kernel, source pushdown).
    PointKnows,
    /// Source-anchored sliced `(:Likes/:Has_creator)+` trails (lazy join
    /// kernel, source pushdown).
    PointJoin,
    /// Target-anchored sliced `:Knows+` (lazy CSR kernel, reachability stop).
    ReachKnows,
    /// Target-anchored `(:Likes/:Has_creator)+` shortest walks (join kernel).
    ReachJoin,
    /// Target-anchored `:Knows+` trails (materialising frontier, σ after).
    ReachTrail,
    /// Unanchored bounded `:Knows+` walks: the large answer.
    DrainWalk,
    /// Unanchored sliced `(:Likes/:Has_creator)+` trails.
    DrainJoin,
}

impl Template {
    fn gql(self, name: &str) -> String {
        match self {
            Template::PointKnows => {
                format!("MATCH ANY SHORTEST WALK p = (?x {{name:\"{name}\"}})-[:Knows+]->(?y)")
            }
            Template::PointJoin => format!(
                "MATCH ANY SHORTEST TRAIL p = (?x {{name:\"{name}\"}})-[(:Likes/:Has_creator)+]->(?y)"
            ),
            Template::ReachKnows => {
                format!("MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y {{name:\"{name}\"}})")
            }
            Template::ReachJoin => format!(
                "MATCH ALL SHORTEST WALK p = (?x)-[(:Likes/:Has_creator)+]->(?y {{name:\"{name}\"}})"
            ),
            Template::ReachTrail => {
                format!("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y {{name:\"{name}\"}})")
            }
            Template::DrainWalk => "MATCH ALL WALK p = (?x)-[:Knows+]->(?y)".to_string(),
            Template::DrainJoin => {
                "MATCH ANY SHORTEST TRAIL p = (?x)-[(:Likes/:Has_creator)+]->(?y)".to_string()
            }
        }
    }

    /// The same logical query as a datalog-ish RPQ rule.
    fn rpq(self, name: &str) -> String {
        let (source, target) = match self {
            Template::PointKnows | Template::PointJoin => {
                (format!("x {{name:\"{name}\"}}"), "y".to_string())
            }
            Template::ReachKnows | Template::ReachJoin | Template::ReachTrail => {
                ("x".to_string(), format!("y {{name:\"{name}\"}}"))
            }
            Template::DrainWalk | Template::DrainJoin => ("x".to_string(), "y".to_string()),
        };
        let clauses = match self {
            Template::PointKnows | Template::ReachKnows => "walk, any_shortest",
            Template::PointJoin | Template::DrainJoin => "trail, any_shortest",
            Template::ReachTrail => "trail, all",
            Template::ReachJoin => "walk, all_shortest",
            Template::DrainWalk => "walk, all",
        };
        format!("reach({source}, {target}) :- {}, {clauses}.", self.regex())
    }

    /// The regular path expression of the template, as the RPQ crate reads it.
    pub fn regex(self) -> &'static str {
        match self {
            Template::PointKnows
            | Template::ReachKnows
            | Template::ReachTrail
            | Template::DrainWalk => ":Knows+",
            Template::PointJoin | Template::ReachJoin | Template::DrainJoin => {
                "(:Likes/:Has_creator)+"
            }
        }
    }

    pub fn semantics(self) -> PathSemantics {
        match self {
            Template::PointKnows
            | Template::ReachKnows
            | Template::ReachJoin
            | Template::DrainWalk => PathSemantics::Walk,
            Template::PointJoin | Template::ReachTrail | Template::DrainJoin => {
                PathSemantics::Trail
            }
        }
    }
}

/// One logical query. Answers are checked per logical query: every surface
/// spelling of it must return the reference answer of its GQL text.
pub struct Logical {
    pub template: Template,
    pub gql: String,
}

/// One distinct wire text.
pub struct QueryText {
    pub surface: QuerySurface,
    pub text: String,
    /// Index into [`Workload::logical`].
    pub logical: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Send [`Workload::texts`]`[i]` and verify the answer.
    Query(usize),
    /// Send `BUMP`: statistics recompute plus plan purge.
    Bump,
}

pub struct Workload {
    pub name: &'static str,
    /// `ExecutionConfig::threads` of the service.
    pub engine_threads: usize,
    /// `recursion.max_length` of the service.
    pub max_length: usize,
    /// Untimed rounds each client sends at the end of set-up.
    pub warmup_rounds: usize,
    pub logical: Vec<Logical>,
    pub texts: Vec<QueryText>,
    /// Per client, the cycle of rounds it repeats; a round is the list of
    /// steps sent in order on that client's connection.
    pub clients: Vec<Vec<Vec<Step>>>,
}

/// `k` distinct person names of the generated graph, drawn by `rng`.
fn anchor_names(rng: &mut SplitMix64, k: usize) -> Vec<String> {
    let pool = SnbConfig::scale(PERSONS, 0).names;
    rng.distinct(k, PERSONS)
        .into_iter()
        .map(|i| format!("{}{}", pool[i % pool.len()], i))
        .collect()
}

/// Collects logical queries and wire texts, handing out their indexes.
#[derive(Default)]
struct Catalog {
    logical: Vec<Logical>,
    texts: Vec<QueryText>,
}

impl Catalog {
    fn logical(&mut self, template: Template, name: &str) -> usize {
        self.logical.push(Logical {
            template,
            gql: template.gql(name),
        });
        self.logical.len() - 1
    }

    /// Adds the spelling of logical query `logical` on `surface`.
    fn text(&mut self, logical: usize, name: &str, surface: QuerySurface) -> usize {
        let Logical { template, gql } = &self.logical[logical];
        let text = match surface {
            QuerySurface::Gql => gql.clone(),
            QuerySurface::Rpq => template.rpq(name),
            QuerySurface::Ir => parse_surface(QuerySurface::Gql, gql)
                .expect("the GQL templates parse")
                .to_json_string(),
        };
        // A spelling that lowered to a different IR would be checked against
        // the wrong reference answer; that is a bug in the templates above.
        assert_eq!(
            parse_surface(surface, &text).expect("the templates parse on every surface"),
            parse_surface(QuerySurface::Gql, gql).expect("the GQL templates parse"),
            "{surface} spelling of {gql} is a different query"
        );
        self.texts.push(QueryText {
            surface,
            text,
            logical,
        });
        self.texts.len() - 1
    }

    fn gql_text(&mut self, template: Template, name: &str) -> usize {
        let logical = self.logical(template, name);
        self.text(logical, name, QuerySurface::Gql)
    }
}

impl Workload {
    pub fn generate(name: &str, seed: u64) -> Result<Workload, String> {
        let mut rng = SplitMix64::new(seed);
        match name {
            "point_lookup" => Ok(point_lookup(&mut rng)),
            "reach_target" => Ok(reach_target(&mut rng)),
            "bulk_drain" => Ok(bulk_drain()),
            "mixed_concurrent" => Ok(mixed_concurrent(&mut rng)),
            other => Err(format!("unknown workload {other}")),
        }
    }
}

/// 6 `PointKnows` + 2 `PointJoin` per round, the anchors rotating over 16
/// names: 32 distinct texts, all warm in the 256-entry plan cache after one
/// cycle of 8 rounds (which is therefore the warm-up).
fn point_lookup(rng: &mut SplitMix64) -> Workload {
    const ANCHORS: usize = 16;
    const CYCLE: usize = 8;
    let names = anchor_names(rng, ANCHORS);
    let mut catalog = Catalog::default();
    let knows: Vec<usize> = names
        .iter()
        .map(|n| catalog.gql_text(Template::PointKnows, n))
        .collect();
    let join: Vec<usize> = names
        .iter()
        .map(|n| catalog.gql_text(Template::PointJoin, n))
        .collect();
    let cycle = (0..CYCLE)
        .map(|r| {
            let k = |j: usize| Step::Query(knows[(6 * r + j) % ANCHORS]);
            let b = |j: usize| Step::Query(join[(2 * r + j) % ANCHORS]);
            vec![k(0), k(1), k(2), b(0), k(3), k(4), k(5), b(1)]
        })
        .collect();
    Workload {
        name: "point_lookup",
        engine_threads: 1,
        max_length: 4,
        warmup_rounds: CYCLE,
        logical: catalog.logical,
        texts: catalog.texts,
        clients: vec![cycle],
    }
}

/// The three target-anchored queries on one name per round, the name
/// rotating over 16. `max_length` is 2, not the 3 the issue sketched: at 3
/// the materialising `ReachTrail` alone takes 0.3 s, which leaves some 50
/// rounds per run and a 90th percentile that does not repeat.
fn reach_target(rng: &mut SplitMix64) -> Workload {
    let names = anchor_names(rng, 16);
    let mut catalog = Catalog::default();
    let cycle = names
        .iter()
        .map(|n| {
            [
                Template::ReachKnows,
                Template::ReachJoin,
                Template::ReachTrail,
            ]
            .map(|t| Step::Query(catalog.gql_text(t, n)))
            .to_vec()
        })
        .collect();
    Workload {
        name: "reach_target",
        engine_threads: 2,
        max_length: 2,
        warmup_rounds: 1,
        logical: catalog.logical,
        texts: catalog.texts,
        clients: vec![cycle],
    }
}

/// The two unanchored drains, every round.
fn bulk_drain() -> Workload {
    let mut catalog = Catalog::default();
    let round = vec![
        Step::Query(catalog.gql_text(Template::DrainWalk, "")),
        Step::Query(catalog.gql_text(Template::DrainJoin, "")),
    ];
    Workload {
        name: "bulk_drain",
        engine_threads: 1,
        max_length: 2,
        warmup_rounds: 1,
        logical: catalog.logical,
        texts: catalog.texts,
        clients: vec![vec![round]],
    }
}

/// Two clients, 12 short queries per round. The template of each slot is
/// fixed, so rounds cost about the same; anchor (75 names → 300 logical
/// plans, more than the plan cache holds) and surface (two of the three per
/// logical query → 600 texts, more than the text-alias cache holds) are
/// drawn by the seed. Three slots per round carry the same text on both
/// clients (in-flight dedup when they overlap), and client 0 ends every
/// 20th round with `BUMP`.
fn mixed_concurrent(rng: &mut SplitMix64) -> Workload {
    const ANCHORS: usize = 75;
    const CYCLE: usize = 40;
    const BUMP_EVERY: usize = 20;
    use Template::{PointJoin as PJ, PointKnows as PK, ReachJoin as RJ, ReachKnows as RK};
    const SLOTS: [Template; 12] = [PK, RK, PJ, PK, RJ, PK, RK, PJ, PK, RJ, RK, PK];
    const SHARED_SLOTS: [usize; 3] = [0, 4, 8];
    const TEMPLATES: [Template; 4] = [PK, PJ, RK, RJ];

    let names = anchor_names(rng, ANCHORS);
    let mut catalog = Catalog::default();
    // texts_of[template][anchor] = the two spellings of that logical query.
    let texts_of: Vec<Vec<[usize; 2]>> = TEMPLATES
        .iter()
        .map(|&t| {
            names
                .iter()
                .map(|n| {
                    let logical = catalog.logical(t, n);
                    [0, 1].map(|k| catalog.text(logical, n, QuerySurface::ALL[(logical + k) % 3]))
                })
                .collect()
        })
        .collect();
    let mut draw = |slot: usize| {
        let t = TEMPLATES
            .iter()
            .position(|&t| t == SLOTS[slot])
            .expect("every slot template is listed");
        Step::Query(texts_of[t][rng.below(ANCHORS)][rng.below(2)])
    };
    let mut clients = vec![Vec::with_capacity(CYCLE), Vec::with_capacity(CYCLE)];
    for r in 0..CYCLE {
        let first: Vec<Step> = (0..SLOTS.len()).map(&mut draw).collect();
        let mut second: Vec<Step> = (0..SLOTS.len()).map(&mut draw).collect();
        for slot in SHARED_SLOTS {
            second[slot] = first[slot];
        }
        clients[0].push(first);
        clients[1].push(second);
        if r % BUMP_EVERY == BUMP_EVERY - 1 {
            clients[0][r].push(Step::Bump);
        }
    }
    Workload {
        name: "mixed_concurrent",
        engine_threads: 1,
        max_length: 3,
        warmup_rounds: 1,
        logical: catalog.logical,
        texts: catalog.texts,
        clients,
    }
}
