//! The video database: ingest, flat-scan retrieval (Eq. 24) and
//! cluster-based hierarchical retrieval (Eq. 25).

use crate::access::{AccessPolicy, UserContext};
use crate::centers::MultiCenter;
use crate::concepts::{ConceptHierarchy, NodeId, NodeKind};
use crate::features::Subspace;
use crate::hash::ShotHashIndex;
use medvid_knn::{candidate_pool, CostModel, LevelStats, PlanChoice, QuantizedBlock};
use medvid_obs::{counters, Recorder, Stage};
use medvid_types::{ContentStructure, EventKind, SceneId, ShotId, VideoId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// A database-wide shot reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ShotRef {
    /// Owning video.
    pub video: VideoId,
    /// Shot within that video.
    pub shot: ShotId,
}

/// One indexed shot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShotRecord {
    /// Reference to the shot.
    pub shot: ShotRef,
    /// Concatenated 266-dim feature vector (colour + texture).
    pub features: Vec<f32>,
    /// Mined event of the owning scene.
    pub event: EventKind,
    /// The scene-level concept node the shot is indexed under.
    pub scene_node: NodeId,
}

/// Why a shot record was rejected by a validated ingest path
/// ([`VideoDatabase::try_insert_shot`], snapshot restore, network ingest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The scene node does not exist in the hierarchy.
    UnknownNode(NodeId),
    /// The node exists but is not a scene-level (leaf) node.
    NotSceneNode(NodeId),
    /// The feature vector is empty.
    EmptyFeatures(ShotRef),
    /// The feature vector length disagrees with the records already indexed.
    DimensionMismatch {
        /// The offending shot.
        shot: ShotRef,
        /// Length shared by the indexed records.
        expected: usize,
        /// Length of the rejected vector.
        got: usize,
    },
    /// The shot reference is already indexed.
    DuplicateShot(ShotRef),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::UnknownNode(n) => write!(f, "unknown concept node {n:?}"),
            RecordError::NotSceneNode(n) => write!(f, "node {n:?} is not a scene node"),
            RecordError::EmptyFeatures(s) => {
                write!(f, "shot {}/{} has an empty feature vector", s.video, s.shot)
            }
            RecordError::DimensionMismatch {
                shot,
                expected,
                got,
            } => write!(
                f,
                "shot {}/{} has {got} feature dims, database has {expected}",
                shot.video, shot.shot
            ),
            RecordError::DuplicateShot(s) => {
                write!(f, "shot {}/{} is already indexed", s.video, s.shot)
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// Which exact retrieval path a query actually ran, when the live query
/// planner (Eqs. 24–25, [`VideoDatabase::planned_search`]) was in charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannedPath {
    /// The planner was not consulted (an explicit strategy ran).
    #[default]
    Unplanned,
    /// The planner priced the quantized flat scan cheaper (Eq. 24 side).
    QuantizedFlat,
    /// The planner priced the best-first descent cheaper (Eq. 25 side).
    BestFirst,
}

/// Retrieval cost counters, the empirical counterpart of Eqs. 24–25.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetrievalStats {
    /// Feature-distance evaluations performed (`N_T` vs
    /// `M_c + M_sc + M_s + M_o`).
    pub comparisons: usize,
    /// Candidates that entered the ranking stage (`N_T` vs `M_o`).
    pub ranked: usize,
    /// Index nodes visited.
    pub nodes_visited: usize,
    /// Total feature dimensions touched by all comparisons (captures the
    /// reduced-dimension effect `T_o <= T_m`).
    pub dims_touched: usize,
    /// Sibling subtrees skipped at routing steps (the pruning that makes
    /// Eq. 25 cheaper than Eq. 24; always 0 for flat scans).
    pub pruned_subtrees: usize,
    /// Records scanned by the quantized integer kernel (each touches every
    /// dimension, but at a quarter of the f32 per-dimension cost).
    pub quantized_comparisons: usize,
    /// Quantized-scan candidates that survived into the exact f32 re-rank.
    pub rerank_candidates: usize,
    /// The cost model's predicted `comparisons` for the chosen path (0
    /// when the planner was not consulted).
    pub planner_estimated_comparisons: usize,
    /// Which path the planner chose, if it ran.
    pub planner_path: PlannedPath,
}

impl RetrievalStats {
    /// Folds these counters into the telemetry layer: feature comparisons,
    /// nodes visited, pruned subtrees, kernel activity and one query
    /// executed.
    pub fn record_to(&self, rec: &Recorder) {
        rec.incr(counters::INDEX_COMPARISONS, self.comparisons as u64);
        rec.incr(counters::INDEX_NODES_VISITED, self.nodes_visited as u64);
        rec.incr(counters::INDEX_PRUNED_SUBTREES, self.pruned_subtrees as u64);
        rec.incr(
            counters::KNN_QUANTIZED_COMPARISONS,
            self.quantized_comparisons as u64,
        );
        rec.incr(counters::KNN_RERANK_CANDIDATES, self.rerank_candidates as u64);
        if self.planner_path == PlannedPath::QuantizedFlat {
            rec.incr(counters::PLANNER_FLAT_FALLBACKS, 1);
        }
        rec.incr(counters::QUERIES_RUN, 1);
    }
}

/// A ranked retrieval hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryResult {
    /// The matching shot.
    pub shot: ShotRef,
    /// Squared feature distance to the query (smaller is better).
    pub distance: f32,
}

/// Index-construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexConfig {
    /// Subspace dimensionality at cluster nodes.
    pub cluster_dims: usize,
    /// Subspace dimensionality at subcluster nodes.
    pub subcluster_dims: usize,
    /// Subspace dimensionality at scene (leaf) nodes.
    pub scene_dims: usize,
    /// Centres per non-leaf node.
    pub centers: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            cluster_dims: 16,
            subcluster_dims: 24,
            scene_dims: 32,
            centers: 4,
        }
    }
}

/// The hierarchical video database of Fig. 1.
#[derive(Debug, Clone)]
pub struct VideoDatabase {
    hierarchy: ConceptHierarchy,
    config: IndexConfig,
    /// Record storage is split so epochs share structure: `base` is the
    /// frozen prefix consolidated by the last [`Self::build`] (shared
    /// across clones by the `Arc` — the heavy 266-dim feature payload is
    /// never copied on ingest), and `tail` holds records appended
    /// incrementally since. Logical record index `i` addresses
    /// `base[i]` or `tail[i - base.len()]`.
    base: Arc<Vec<ShotRecord>>,
    tail: Vec<ShotRecord>,
    policy: AccessPolicy,
    // Built state.
    node_subspace: HashMap<NodeId, Subspace>,
    node_centers: HashMap<NodeId, MultiCenter>,
    leaf_index: HashMap<NodeId, ShotHashIndex>,
    leaf_records: HashMap<NodeId, Vec<usize>>,
    /// Projected population mean per scene node (the routing centroid),
    /// precomputed at build time.
    leaf_mean: HashMap<NodeId, Vec<f32>>,
    shot_lookup: HashMap<ShotRef, usize>,
    /// Dimension-major quantized codes over the `base` records, powering
    /// the integer flat-scan kernel. `None` when the corpus refuses to
    /// quantize (empty, non-finite features) — scans fall back to f32.
    /// Behind an `Arc` so epoch clones share the code matrix; records
    /// appended after the freeze are scored exactly by the scan's tail
    /// merge.
    quant: Option<Arc<QuantizedBlock>>,
    /// Full-space bounding ball per populated node: centroid plus a
    /// radius covering every record beneath it (with floating-point
    /// slack), powering best-first pruning with exact guarantees.
    node_ball: HashMap<NodeId, (Vec<f32>, f64)>,
    /// Live Eq. 24–25 cost model, captured at build time.
    cost_model: Option<CostModel>,
    /// Records appended incrementally since the last full fit — the
    /// staleness measure that triggers background compaction.
    drift: usize,
    built: bool,
}

impl VideoDatabase {
    /// Creates an empty database over a concept hierarchy.
    pub fn new(hierarchy: ConceptHierarchy, config: IndexConfig) -> Self {
        Self {
            hierarchy,
            config,
            base: Arc::new(Vec::new()),
            tail: Vec::new(),
            policy: AccessPolicy::default(),
            node_subspace: HashMap::new(),
            node_centers: HashMap::new(),
            leaf_index: HashMap::new(),
            leaf_records: HashMap::new(),
            leaf_mean: HashMap::new(),
            shot_lookup: HashMap::new(),
            quant: None,
            node_ball: HashMap::new(),
            cost_model: None,
            drift: 0,
            built: false,
        }
    }

    /// Creates a database over the paper's medical hierarchy.
    pub fn medical() -> Self {
        Self::new(ConceptHierarchy::medical(), IndexConfig::default())
    }

    /// The concept hierarchy.
    pub fn hierarchy(&self) -> &ConceptHierarchy {
        &self.hierarchy
    }

    /// Sets the access-control policy.
    pub fn set_policy(&mut self, policy: AccessPolicy) {
        self.policy = policy;
    }

    /// The access-control policy.
    pub fn policy(&self) -> &AccessPolicy {
        &self.policy
    }

    /// The index-construction parameters.
    pub fn config(&self) -> IndexConfig {
        self.config
    }

    /// Number of indexed shots.
    pub fn len(&self) -> usize {
        self.base.len() + self.tail.len()
    }

    /// Whether the database holds no shots.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.tail.is_empty()
    }

    /// The record at logical index `i` (frozen base prefix, then the
    /// incremental tail).
    fn rec(&self, i: usize) -> &ShotRecord {
        if i < self.base.len() {
            &self.base[i]
        } else {
            &self.tail[i - self.base.len()]
        }
    }

    /// Looks up a record by shot reference.
    pub fn record(&self, shot: ShotRef) -> Option<&ShotRecord> {
        self.shot_lookup.get(&shot).map(|&i| self.rec(i))
    }

    /// Iterates over all indexed records, in insertion order.
    pub fn records_iter(&self) -> impl Iterator<Item = &ShotRecord> {
        self.base.iter().chain(self.tail.iter())
    }

    /// Feature dimensionality of the indexed shots, if any are present.
    /// Every record shares one length (enforced by [`Self::validate_record`]
    /// at every validated ingest path).
    pub fn feature_len(&self) -> Option<usize> {
        self.base
            .first()
            .or_else(|| self.tail.first())
            .map(|r| r.features.len())
    }

    /// Checks whether a record could join the index without corrupting it.
    ///
    /// # Errors
    /// Rejects records whose scene node is missing or non-leaf, whose
    /// feature vector is empty or disagrees in length with the records
    /// already indexed, or whose shot reference is already present.
    pub fn validate_record(
        &self,
        shot: ShotRef,
        features: &[f32],
        scene_node: NodeId,
    ) -> Result<(), RecordError> {
        if scene_node.0 >= self.hierarchy.len() {
            return Err(RecordError::UnknownNode(scene_node));
        }
        if self.hierarchy.node(scene_node).kind != NodeKind::Scene {
            return Err(RecordError::NotSceneNode(scene_node));
        }
        if features.is_empty() {
            return Err(RecordError::EmptyFeatures(shot));
        }
        if let Some(expected) = self.feature_len() {
            if features.len() != expected {
                return Err(RecordError::DimensionMismatch {
                    shot,
                    expected,
                    got: features.len(),
                });
            }
        }
        if self.shot_lookup.contains_key(&shot) {
            return Err(RecordError::DuplicateShot(shot));
        }
        Ok(())
    }

    /// Validated ingest of a single shot: like [`Self::insert_shot`] but
    /// returns an error instead of corrupting (or panicking over) the index
    /// on malformed input. This is the path untrusted inputs — snapshot
    /// restores, network ingest — must take.
    ///
    /// # Errors
    /// See [`Self::validate_record`].
    pub fn try_insert_shot(
        &mut self,
        shot: ShotRef,
        features: Vec<f32>,
        event: EventKind,
        scene_node: NodeId,
    ) -> Result<(), RecordError> {
        self.validate_record(shot, &features, scene_node)?;
        self.insert_shot(shot, features, event, scene_node);
        Ok(())
    }

    /// Ingests a mined video: every shot of every scene is indexed under the
    /// scene node matching its scene's mined event, beneath `subcluster`.
    ///
    /// # Panics
    /// Panics if `subcluster` is not a subcluster node of the hierarchy or
    /// lacks a scene child for an event.
    pub fn insert_video(
        &mut self,
        video: VideoId,
        structure: &ContentStructure,
        scene_events: &[(SceneId, EventKind)],
    ) {
        let subcluster = self.default_subcluster();
        self.insert_video_under(video, structure, scene_events, subcluster);
    }

    /// Like [`Self::insert_video`], under an explicit subcluster node.
    pub fn insert_video_under(
        &mut self,
        video: VideoId,
        structure: &ContentStructure,
        scene_events: &[(SceneId, EventKind)],
        subcluster: NodeId,
    ) {
        let events: HashMap<SceneId, EventKind> = scene_events.iter().copied().collect();
        for scene in &structure.scenes {
            let event = events
                .get(&scene.id)
                .copied()
                .unwrap_or(EventKind::Undetermined);
            let node = self
                .hierarchy
                .scene_for_event(subcluster, event)
                .unwrap_or_else(|| {
                    panic!("subcluster {subcluster:?} lacks a scene node for {event}")
                });
            for sid in structure.scene_shots(scene.id) {
                let shot = &structure.shots[sid.index()];
                self.insert_shot(
                    ShotRef { video, shot: sid },
                    shot.features.concat(),
                    event,
                    node,
                );
            }
        }
        self.built = false;
    }

    /// Low-level ingest of a single shot (used by synthetic benchmarks).
    pub fn insert_shot(
        &mut self,
        shot: ShotRef,
        features: Vec<f32>,
        event: EventKind,
        scene_node: NodeId,
    ) {
        debug_assert_eq!(
            self.hierarchy.node(scene_node).kind,
            NodeKind::Scene,
            "shots index under scene nodes"
        );
        let idx = self.len();
        self.shot_lookup.insert(shot, idx);
        self.tail.push(ShotRecord {
            shot,
            features,
            event,
            scene_node,
        });
        self.built = false;
    }

    /// Validated **incremental** ingest: the append path that keeps the
    /// database serving. Where [`Self::insert_shot`] invalidates the built
    /// index (forcing an O(db) [`Self::build`]), this inserts the shot into
    /// the live structures in O(path) work: the leaf hash cell, the leaf
    /// population and routing mean, the concept path's bounding balls
    /// (grown so best-first pruning stays sound — planned and flat results
    /// remain bit-identical to a from-scratch rebuild), and the cost
    /// model's record counts. Per-node subspaces, multi-centres and the
    /// quantized block stay frozen until [`Self::compact`] re-fits them;
    /// each append bumps [`Self::drift`] so callers know when compaction
    /// is due.
    ///
    /// On an unbuilt database this degrades to [`Self::insert_shot`] (the
    /// caller's next [`Self::build`] does the initial fit).
    ///
    /// # Errors
    /// See [`Self::validate_record`].
    pub fn append_shot(
        &mut self,
        shot: ShotRef,
        features: Vec<f32>,
        event: EventKind,
        scene_node: NodeId,
    ) -> Result<(), RecordError> {
        self.validate_record(shot, &features, scene_node)?;
        if !self.built {
            self.insert_shot(shot, features, event, scene_node);
            return Ok(());
        }
        let idx = self.len();
        // Grow (or seed) the bounding balls along the concept path so the
        // best-first descent never prunes a subtree holding the new
        // record. The centroid is left where the last fit put it; only
        // the radius grows, which keeps the ball sound (covering) even
        // though it is no longer minimal.
        for node in self.hierarchy.path(scene_node) {
            if self.hierarchy.node(node).kind == NodeKind::Root {
                continue;
            }
            match self.node_ball.get_mut(&node) {
                Some((centroid, radius)) => {
                    let d = centroid
                        .iter()
                        .zip(features.iter())
                        .map(|(&c, &x)| (c as f64 - x as f64).powi(2))
                        .sum::<f64>()
                        .sqrt();
                    *radius = if d.is_finite() {
                        radius.max(d * (1.0 + 1e-9) + 1e-9)
                    } else {
                        f64::INFINITY
                    };
                }
                None => {
                    self.node_ball.insert(node, (features.clone(), 1e-9));
                }
            }
        }
        // Seed routing structures for nodes this record newly populates;
        // already-fit subspaces and centres stay frozen until compaction.
        for node in self.hierarchy.path(scene_node) {
            let kind = self.hierarchy.node(node).kind;
            let dims = match kind {
                NodeKind::Root => continue,
                NodeKind::Cluster => self.config.cluster_dims,
                NodeKind::SubCluster => self.config.subcluster_dims,
                NodeKind::Scene => self.config.scene_dims,
            };
            if self.node_subspace.contains_key(&node) {
                continue;
            }
            let subspace = Subspace::top_variance(&[features.as_slice()], dims);
            if kind != NodeKind::Scene {
                let projected = subspace.project(&features);
                self.node_centers
                    .insert(node, MultiCenter::fit(&[projected], self.config.centers));
            }
            self.node_subspace.insert(node, subspace);
        }
        // Leaf structures: hash cell, population list, running routing
        // mean (an online mean over the leaf's projected population).
        let projected = self.node_subspace[&scene_node].project(&features);
        self.leaf_index
            .entry(scene_node)
            .or_default()
            .insert(&projected, shot);
        let pop = self.leaf_records.entry(scene_node).or_default();
        pop.push(idx);
        let n = pop.len() as f32;
        if let Some(mean) = self.leaf_mean.get_mut(&scene_node) {
            for (m, p) in mean.iter_mut().zip(projected.iter()) {
                *m += (*p - *m) / n;
            }
        } else {
            self.leaf_mean.insert(scene_node, projected);
        }
        // The record itself. The quantized block stays frozen over the
        // base prefix; flat scans score the tail exactly, so results
        // stay identical to a rebuilt index.
        self.shot_lookup.insert(shot, idx);
        self.tail.push(ShotRecord {
            shot,
            features,
            event,
            scene_node,
        });
        self.drift += 1;
        self.refresh_cost_model();
        Ok(())
    }

    /// Records appended incrementally since the last full fit
    /// ([`Self::build`] or [`Self::compact`]). The staleness measure a
    /// background compaction job compares against its threshold.
    pub fn drift(&self) -> usize {
        self.drift
    }

    /// Whether the index structures are current (searchable without a
    /// [`Self::build`]). Incremental appends keep this true.
    pub fn is_built(&self) -> bool {
        self.built
    }

    /// Full re-fit — the compaction job's core. Unlike [`Self::build`]
    /// (which is idempotent and no-ops on a built database) this always
    /// re-runs the per-node subspace/centre fits and re-freezes the
    /// quantized block over the consolidated record set, folding the
    /// incremental drift back in. Resets [`Self::drift`] to zero.
    pub fn compact(&mut self) {
        self.built = false;
        self.build();
    }

    /// Re-derives the Eq. 24–25 cost model from the live populated
    /// structures after an incremental append (counts only — the
    /// per-level dimensionalities are configuration).
    fn refresh_cost_model(&mut self) {
        let (mut clusters, mut subclusters) = (0usize, 0usize);
        for node in self.hierarchy.nodes() {
            if !self.node_ball.contains_key(&node.id) {
                continue;
            }
            match node.kind {
                NodeKind::Cluster => clusters += 1,
                NodeKind::SubCluster => subclusters += 1,
                _ => {}
            }
        }
        let scenes = self.leaf_records.len();
        let total = self.len();
        self.cost_model = self.feature_len().map(|full_dims| CostModel {
            total_records: total,
            full_dims,
            cluster: LevelStats {
                nodes: clusters,
                centers: self.config.centers,
                dims: self.config.cluster_dims,
            },
            subcluster: LevelStats {
                nodes: subclusters,
                centers: self.config.centers,
                dims: self.config.subcluster_dims,
            },
            scene: LevelStats {
                nodes: scenes,
                centers: 1,
                dims: self.config.scene_dims,
            },
            avg_leaf_population: total as f64 / scenes.max(1) as f64,
        });
    }

    /// The first subcluster of the first cluster (the default ingest target
    /// when the caller does not classify videos beyond their events).
    pub fn default_subcluster(&self) -> NodeId {
        let cluster = self.hierarchy.node(self.hierarchy.root()).children[0];
        self.hierarchy.node(cluster).children[0]
    }

    /// Like [`Self::build`], timing the construction under the `index_build`
    /// stage and counting the indexed shots through `rec`.
    pub fn build_observed(&mut self, rec: &Recorder) {
        if self.built {
            return;
        }
        let _span = rec.span(Stage::IndexBuild);
        self.build();
        rec.incr(counters::INDEX_SHOTS, self.len() as u64);
    }

    /// Builds all per-node index structures. Idempotent. Consolidates the
    /// incremental tail into the shared base prefix first, so a build (or
    /// [`Self::compact`]) is the moment record storage re-freezes.
    pub fn build(&mut self) {
        if self.built {
            return;
        }
        if !self.tail.is_empty() {
            let mut all = Vec::with_capacity(self.len());
            all.extend(self.base.iter().cloned());
            all.append(&mut self.tail);
            self.base = Arc::new(all);
        }
        let records = Arc::clone(&self.base);
        self.node_subspace.clear();
        self.node_centers.clear();
        self.leaf_index.clear();
        self.leaf_records.clear();
        self.leaf_mean.clear();
        self.node_ball.clear();
        self.quant = None;
        self.cost_model = None;
        // Population per node = records below it.
        let mut node_population: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for (i, r) in records.iter().enumerate() {
            for node in self.hierarchy.path(r.scene_node) {
                node_population.entry(node).or_default().push(i);
            }
        }
        for node in self.hierarchy.nodes() {
            let Some(pop) = node_population.get(&node.id) else {
                continue;
            };
            let dims = match node.kind {
                NodeKind::Root => continue,
                NodeKind::Cluster => self.config.cluster_dims,
                NodeKind::SubCluster => self.config.subcluster_dims,
                NodeKind::Scene => self.config.scene_dims,
            };
            let vectors: Vec<&[f32]> = pop
                .iter()
                .map(|&i| records[i].features.as_slice())
                .collect();
            if let Some(ball) = bounding_ball(&vectors) {
                self.node_ball.insert(node.id, ball);
            }
            let subspace = Subspace::top_variance(&vectors, dims);
            match node.kind {
                NodeKind::Scene => {
                    let mut index = ShotHashIndex::new();
                    for &i in pop {
                        index.insert(&subspace.project(&records[i].features), records[i].shot);
                    }
                    self.leaf_index.insert(node.id, index);
                    self.leaf_records.insert(node.id, pop.clone());
                    if let Some(mean) = mean_projected(
                        pop.iter().map(|&i| records[i].features.as_slice()),
                        &subspace,
                    ) {
                        self.leaf_mean.insert(node.id, mean);
                    }
                }
                _ => {
                    let projected: Vec<Vec<f32>> =
                        vectors.iter().map(|v| subspace.project(v)).collect();
                    self.node_centers
                        .insert(node.id, MultiCenter::fit(&projected, self.config.centers));
                }
            }
            self.node_subspace.insert(node.id, subspace);
        }
        // Quantized SoA block over the whole corpus for the flat-scan
        // kernel (None when the corpus refuses to quantize — f32 fallback).
        let all: Vec<&[f32]> = records.iter().map(|r| r.features.as_slice()).collect();
        self.quant = QuantizedBlock::build(&all).map(Arc::new);
        // Live Eq. 24–25 cost model from the populated hierarchy.
        let (mut clusters, mut subclusters, mut scenes, mut leaf_pop) = (0usize, 0usize, 0usize, 0usize);
        for node in self.hierarchy.nodes() {
            let Some(pop) = node_population.get(&node.id) else {
                continue;
            };
            match node.kind {
                NodeKind::Root => {}
                NodeKind::Cluster => clusters += 1,
                NodeKind::SubCluster => subclusters += 1,
                NodeKind::Scene => {
                    scenes += 1;
                    leaf_pop += pop.len();
                }
            }
        }
        self.cost_model = self.feature_len().map(|full_dims| CostModel {
            total_records: self.len(),
            full_dims,
            cluster: LevelStats {
                nodes: clusters,
                centers: self.config.centers,
                dims: self.config.cluster_dims,
            },
            subcluster: LevelStats {
                nodes: subclusters,
                centers: self.config.centers,
                dims: self.config.subcluster_dims,
            },
            scene: LevelStats {
                nodes: scenes,
                centers: 1,
                dims: self.config.scene_dims,
            },
            avg_leaf_population: leaf_pop as f64 / scenes.max(1) as f64,
        });
        self.drift = 0;
        self.built = true;
    }

    /// The live Eq. 24–25 cost model captured by the last [`Self::build`],
    /// if the database holds any records.
    pub fn cost_model(&self) -> Option<CostModel> {
        if self.built {
            self.cost_model
        } else {
            None
        }
    }

    /// The quantized code matrix footprint in bytes (0 when the corpus is
    /// not quantized).
    pub fn quantized_bytes(&self) -> usize {
        self.quant.as_ref().map_or(0, |b| b.code_bytes())
    }

    /// Flat-scan retrieval (Eq. 24): ranks every accessible shot against
    /// the query in the full feature space. On a built database the scan
    /// runs in the quantized integer kernel with an exact f32 re-rank of
    /// the provable candidate pool — same results, bit for bit, at a
    /// fraction of the distance cost; otherwise (or for corpora that
    /// refuse to quantize) it falls back to the scalar f32 scan.
    pub fn flat_search(
        &self,
        query: &[f32],
        top_k: usize,
        user: Option<&UserContext>,
    ) -> (Vec<QueryResult>, RetrievalStats) {
        let mut stats = RetrievalStats::default();
        let hits = self.flat_search_into(query, top_k, user, &mut stats);
        (hits, stats)
    }

    fn flat_search_into(
        &self,
        query: &[f32],
        top_k: usize,
        user: Option<&UserContext>,
        stats: &mut RetrievalStats,
    ) -> Vec<QueryResult> {
        if self.built {
            if let Some(block) = self.quant.as_deref() {
                // The block must cover exactly the frozen base prefix;
                // appended tail records are scored exactly by the merge
                // inside `quantized_flat`.
                let usable = block.len() == self.base.len()
                    && block.dims() == query.len()
                    && query.iter().all(|x| x.is_finite());
                if usable {
                    return self.quantized_flat(block, query, top_k, user, stats);
                }
            }
        }
        let mut hits: Vec<QueryResult> = self
            .records_iter()
            .filter(|r| self.accessible(r, user))
            .map(|r| {
                stats.comparisons += 1;
                stats.dims_touched += r.features.len();
                QueryResult {
                    shot: r.shot,
                    distance: sq_dist(query, &r.features),
                }
            })
            .collect();
        stats.ranked += hits.len();
        // Ties broken by shot id: candidate order comes from hash-table
        // iteration, so without this two identical databases (e.g. one
        // restored from a snapshot of the other) could rank equidistant
        // shots differently.
        hits.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .expect("finite distance")
                .then_with(|| a.shot.cmp(&b.shot))
        });
        hits.truncate(top_k);
        hits
    }

    /// Quantized Eq. 24: integer kernel over the SoA block (the frozen
    /// base prefix), then exact f32 re-rank of the records whose distance
    /// bounds still admit the top-k, plus an exact scan of the incremental
    /// tail (records appended after the block froze) — both merge under
    /// the same tie-break, so results are bit-identical to the scalar
    /// scan. Counter semantics match the scalar scan
    /// (`comparisons`/`ranked` = accessible records considered); the
    /// kernel's own work lands in `quantized_comparisons` and
    /// `rerank_candidates`.
    fn quantized_flat(
        &self,
        block: &QuantizedBlock,
        query: &[f32],
        top_k: usize,
        user: Option<&UserContext>,
        stats: &mut RetrievalStats,
    ) -> Vec<QueryResult> {
        let elig: Vec<bool> = self
            .base
            .iter()
            .map(|r| self.accessible(r, user))
            .collect();
        let tail_elig: Vec<bool> = self
            .tail
            .iter()
            .map(|r| self.accessible(r, user))
            .collect();
        let eligible = elig.iter().filter(|&&e| e).count()
            + tail_elig.iter().filter(|&&e| e).count();
        stats.comparisons += eligible;
        stats.ranked += eligible;
        stats.dims_touched += eligible * block.dims();
        stats.quantized_comparisons += block.len();
        let enc = block.encode_query(query);
        let mut dists = Vec::new();
        block.scan_into(&enc.codes, &mut dists);
        let pool = candidate_pool(&dists, top_k, block.scale(), enc.err_bound, |i| elig[i]);
        stats.rerank_candidates += pool.len();
        let mut hits: Vec<QueryResult> = pool
            .into_iter()
            .map(|i| {
                let r = &self.base[i];
                QueryResult {
                    shot: r.shot,
                    distance: sq_dist(query, &r.features),
                }
            })
            .collect();
        for (j, r) in self.tail.iter().enumerate() {
            if tail_elig[j] {
                stats.rerank_candidates += 1;
                hits.push(QueryResult {
                    shot: r.shot,
                    distance: sq_dist(query, &r.features),
                });
            }
        }
        hits.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .expect("finite distance")
                .then_with(|| a.shot.cmp(&b.shot))
        });
        hits.truncate(top_k);
        hits
    }

    /// Planner-driven retrieval: instantiates the Eq. 24–25 cost model for
    /// this query's `k` and runs whichever exact path it prices cheaper —
    /// the quantized flat scan or a best-first, ball-pruned descent. Both
    /// paths rank in the full f32 feature space with the same tie-break,
    /// so results are bit-identical to [`Self::flat_search`]; the plan
    /// only decides how much work finding them costs. The verdict lands in
    /// `planner_path` / `planner_estimated_comparisons`.
    ///
    /// A database that has not been built since its last insert has no
    /// cost model to plan with: it answers through the exact
    /// [`Self::flat_search`] (`planner_path` stays `Unplanned`).
    pub fn planned_search(
        &self,
        query: &[f32],
        top_k: usize,
        user: Option<&UserContext>,
    ) -> (Vec<QueryResult>, RetrievalStats) {
        if !self.built {
            return self.flat_search(query, top_k, user);
        }
        let mut stats = RetrievalStats::default();
        let Some(model) = self.cost_model else {
            // Empty database: nothing to plan over.
            stats.planner_path = PlannedPath::QuantizedFlat;
            return (Vec::new(), stats);
        };
        let est = model.estimate(top_k);
        stats.planner_estimated_comparisons = est.estimated_comparisons;
        let hits = match est.choice {
            PlanChoice::QuantizedFlat => {
                stats.planner_path = PlannedPath::QuantizedFlat;
                self.flat_search_into(query, top_k, user, &mut stats)
            }
            PlanChoice::BestFirst => {
                stats.planner_path = PlannedPath::BestFirst;
                self.best_first_search(query, top_k, user, &mut stats)
            }
        };
        (hits, stats)
    }

    /// Best-first multi-probe descent: a frontier of hierarchy nodes
    /// ordered by their bounding-ball lower bound, drained smallest-bound
    /// first. Leaves rank their populations exactly (full f32 space, flat
    /// tie-break); a node is pruned only when its lower bound *strictly*
    /// exceeds the current k-th best distance, so the result is
    /// bit-identical to the flat scan.
    fn best_first_search(
        &self,
        query: &[f32],
        top_k: usize,
        user: Option<&UserContext>,
        stats: &mut RetrievalStats,
    ) -> Vec<QueryResult> {
        if top_k == 0 {
            return Vec::new();
        }
        // Min-heap over (squared lower bound, node id).
        let mut frontier: BinaryHeap<Reverse<(OrdF64, usize)>> = BinaryHeap::new();
        let root = self.hierarchy.root();
        for &c in &self.hierarchy.node(root).children {
            if let Some(lb) = self.ball_lower_bound_sq(c, query) {
                frontier.push(Reverse((OrdF64(lb), c.0)));
            }
        }
        // Max-heap over (distance, shot): the worst current member sits on
        // top, and distance ties are decided by shot id exactly as the
        // flat scan's sort would.
        let mut top: BinaryHeap<(OrdF32, ShotRef)> = BinaryHeap::new();
        while let Some(Reverse((OrdF64(lb_sq), nid))) = frontier.pop() {
            if top.len() == top_k {
                let worst = top.peek().expect("non-empty heap").0 .0 as f64;
                if lb_sq > worst {
                    // The frontier is bound-ordered: everything left is at
                    // least this far away too.
                    stats.pruned_subtrees += 1 + frontier.len();
                    break;
                }
            }
            let node = NodeId(nid);
            stats.nodes_visited += 1;
            if self.hierarchy.node(node).kind == NodeKind::Scene {
                let Some(pop) = self.leaf_records.get(&node) else {
                    continue;
                };
                for &i in pop {
                    let r = self.rec(i);
                    if !self.accessible(r, user) {
                        continue;
                    }
                    stats.comparisons += 1;
                    stats.ranked += 1;
                    stats.dims_touched += r.features.len();
                    let entry = (OrdF32(sq_dist(query, &r.features)), r.shot);
                    if top.len() < top_k {
                        top.push(entry);
                    } else if entry < *top.peek().expect("non-empty heap") {
                        top.pop();
                        top.push(entry);
                    }
                }
            } else {
                for &c in &self.hierarchy.node(node).children {
                    if let Some(lb) = self.ball_lower_bound_sq(c, query) {
                        frontier.push(Reverse((OrdF64(lb), c.0)));
                    }
                }
            }
        }
        let mut hits: Vec<QueryResult> = top
            .into_iter()
            .map(|(OrdF32(distance), shot)| QueryResult { shot, distance })
            .collect();
        hits.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .expect("finite distance")
                .then_with(|| a.shot.cmp(&b.shot))
        });
        hits
    }

    /// Sound squared lower bound on the distance from `query` to any
    /// record beneath `node`, from the node's bounding ball. `None` for
    /// unpopulated nodes. Deflated to absorb the f32 rounding of the
    /// `sq_dist` values it is compared against.
    fn ball_lower_bound_sq(&self, node: NodeId, query: &[f32]) -> Option<f64> {
        let (centroid, radius) = self.node_ball.get(&node)?;
        let mut sum = 0f64;
        for (&q, &c) in query.iter().zip(centroid.iter()) {
            let d = q as f64 - c as f64;
            sum += d * d;
        }
        let lb = (sum.sqrt() - radius).max(0.0);
        Some(lb * lb * (1.0 - 1e-4))
    }

    /// Cluster-based hierarchical retrieval (Eq. 25): routes the query down
    /// the hierarchy by nearest multi-centre, probes the chosen scene node's
    /// hash index and ranks only the shots that reside there.
    ///
    /// A database that has not been built since its last insert has no
    /// hierarchy to route through: it answers through the exact
    /// [`Self::flat_search`] instead (empty on an empty database), so a
    /// server over a fresh store answers its first queries rather than
    /// failing them.
    pub fn hierarchical_search(
        &self,
        query: &[f32],
        top_k: usize,
        user: Option<&UserContext>,
    ) -> (Vec<QueryResult>, RetrievalStats) {
        if !self.built {
            return self.flat_search(query, top_k, user);
        }
        let mut stats = RetrievalStats::default();
        // Route: root -> cluster -> ... -> scene node.
        let mut current = self.hierarchy.root();
        loop {
            let children: Vec<NodeId> = self
                .hierarchy
                .node(current)
                .children
                .iter()
                .copied()
                .filter(|c| {
                    // Only descend into populated, user-visible nodes.
                    let populated = self.node_subspace.contains_key(c);
                    populated && self.policy.node_visible(&self.hierarchy, *c, user)
                })
                .collect();
            if children.is_empty() {
                break;
            }
            stats.nodes_visited += children.len();
            let best = children
                .iter()
                .copied()
                .filter_map(|c| {
                    let d = self.route_distance(c, query, &mut stats)?;
                    Some((c, d))
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distance"));
            let Some((next, _)) = best else { break };
            stats.pruned_subtrees += children.len() - 1;
            current = next;
            if self.hierarchy.node(current).kind == NodeKind::Scene {
                break;
            }
        }
        if self.hierarchy.node(current).kind != NodeKind::Scene {
            return (Vec::new(), stats);
        }
        // Probe the leaf hash table.
        let subspace = &self.node_subspace[&current];
        let index = &self.leaf_index[&current];
        let projected = subspace.project(query);
        let mut candidates = index.probe(&projected);
        if candidates.is_empty() {
            candidates = index.all();
        }
        let mut hits: Vec<QueryResult> = candidates
            .into_iter()
            .filter_map(|shot| {
                let r = self.rec(self.shot_lookup[&shot]);
                if !self.accessible(r, user) {
                    return None;
                }
                stats.comparisons += 1;
                stats.dims_touched += subspace.len();
                Some(QueryResult {
                    shot,
                    distance: subspace.sq_distance(query, &r.features),
                })
            })
            .collect();
        stats.ranked = hits.len();
        // Same shot-id tie-break as flat_search (probe order is
        // hash-table order, which must not leak into the ranking).
        hits.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .expect("finite distance")
                .then_with(|| a.shot.cmp(&b.shot))
        });
        hits.truncate(top_k);
        (hits, stats)
    }

    fn route_distance(
        &self,
        node: NodeId,
        query: &[f32],
        stats: &mut RetrievalStats,
    ) -> Option<f32> {
        let subspace = self.node_subspace.get(&node)?;
        let projected = subspace.project(query);
        match self.hierarchy.node(node).kind {
            NodeKind::Scene => {
                // Scene nodes route by their precomputed population mean.
                let mean = self.leaf_mean.get(&node)?;
                stats.comparisons += 1;
                stats.dims_touched += subspace.len();
                Some(sq_dist(&projected, mean))
            }
            _ => {
                let centers = self.node_centers.get(&node)?;
                let mut comparisons = 0usize;
                let d = centers.distance(&projected, &mut comparisons);
                stats.comparisons += comparisons;
                stats.dims_touched += comparisons * subspace.len();
                d
            }
        }
    }

    fn accessible(&self, record: &ShotRecord, user: Option<&UserContext>) -> bool {
        self.policy
            .allows(&self.hierarchy, record.scene_node, record.event, user)
    }
}

fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum()
}

/// Total-order f32 wrapper for the best-first result heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF32(f32);
impl Eq for OrdF32 {}
impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Total-order f64 wrapper for the best-first frontier heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Full-space centroid plus a radius covering every vector, inflated for
/// floating-point slack so `|q - centroid| - radius` soundly lower-bounds
/// the distance from any query to any covered vector. An infinite radius
/// (non-finite features) disables pruning for the node without ever
/// excluding it.
fn bounding_ball(vectors: &[&[f32]]) -> Option<(Vec<f32>, f64)> {
    let first = vectors.first()?;
    let mut acc = vec![0f64; first.len()];
    for v in vectors {
        for (a, &x) in acc.iter_mut().zip(v.iter()) {
            *a += x as f64;
        }
    }
    let n = vectors.len() as f64;
    let centroid: Vec<f32> = acc.iter().map(|&a| (a / n) as f32).collect();
    let mut radius = 0f64;
    for v in vectors {
        let d = centroid
            .iter()
            .zip(v.iter())
            .map(|(&c, &x)| (c as f64 - x as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        if !d.is_finite() {
            return Some((centroid, f64::INFINITY));
        }
        radius = radius.max(d);
    }
    Some((centroid, radius * (1.0 + 1e-9) + 1e-9))
}

fn mean_projected<'a>(
    vectors: impl Iterator<Item = &'a [f32]>,
    subspace: &Subspace,
) -> Option<Vec<f32>> {
    let mut acc: Option<Vec<f32>> = None;
    let mut n = 0usize;
    for v in vectors {
        let p = subspace.project(v);
        match &mut acc {
            None => acc = Some(p),
            Some(a) => {
                for (ai, pi) in a.iter_mut().zip(p.iter()) {
                    *ai += pi;
                }
            }
        }
        n += 1;
    }
    acc.map(|mut a| {
        for ai in &mut a {
            *ai /= n as f32;
        }
        a
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a database with `n` synthetic shots spread over the medical
    /// hierarchy's scene nodes, clustered around per-node feature modes.
    fn synthetic_db(n: usize, seed: u64) -> (VideoDatabase, Vec<Vec<f32>>) {
        let mut db = VideoDatabase::medical();
        let scenes = db.hierarchy().scene_nodes();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queries = Vec::new();
        for i in 0..n {
            let node = scenes[i % scenes.len()];
            let mut f = vec![0.0f32; 266];
            // A node-specific mode plus noise.
            let base = (node.0 * 7) % 260;
            f[base] = 0.8 + rng.gen_range(-0.05..0.05);
            f[(base + 3) % 266] = 0.2;
            f[260 + node.0 % 6] = 0.5;
            db.insert_shot(
                ShotRef {
                    video: VideoId(0),
                    shot: ShotId(i),
                },
                f.clone(),
                EventKind::Presentation,
                node,
            );
            if i < 8 {
                queries.push(f);
            }
        }
        db.build();
        (db, queries)
    }

    #[test]
    fn flat_search_finds_exact_match_first() {
        let (db, queries) = synthetic_db(200, 1);
        for q in &queries {
            let (hits, stats) = db.flat_search(q, 5, None);
            assert_eq!(stats.comparisons, 200);
            assert_eq!(stats.ranked, 200);
            assert!(
                hits[0].distance < 1e-9,
                "top hit should be the query itself"
            );
        }
    }

    #[test]
    fn hierarchical_search_is_much_cheaper() {
        let (db, queries) = synthetic_db(400, 2);
        let q = &queries[0];
        let (_, flat) = db.flat_search(q, 5, None);
        let (hits, hier) = db.hierarchical_search(q, 5, None);
        assert!(!hits.is_empty());
        assert!(
            hier.comparisons * 4 < flat.comparisons,
            "hierarchical {} vs flat {}",
            hier.comparisons,
            flat.comparisons
        );
        assert!(hier.ranked < flat.ranked);
        assert!(hier.dims_touched * 4 < flat.dims_touched);
    }

    #[test]
    fn hierarchical_search_returns_relevant_shot() {
        let (db, queries) = synthetic_db(300, 3);
        for q in queries.iter().take(4) {
            let (hits, _) = db.hierarchical_search(q, 3, None);
            assert!(!hits.is_empty());
            assert!(
                hits[0].distance < 0.01,
                "nearest hit distance {}",
                hits[0].distance
            );
        }
    }

    #[test]
    fn unbuilt_database_answers_by_flat_scan() {
        let mut db = VideoDatabase::medical();
        assert!(db.hierarchical_search(&[0.0; 266], 3, None).0.is_empty());
        assert!(db.planned_search(&[0.0; 266], 3, None).0.is_empty());
        let scenes = db.hierarchy().scene_nodes();
        for i in 0..4usize {
            db.insert_shot(
                ShotRef {
                    video: VideoId(0),
                    shot: ShotId(i),
                },
                vec![i as f32; 266],
                EventKind::Dialog,
                scenes[0],
            );
        }
        assert!(!db.is_built());
        let q = [1.2f32; 266];
        let flat = db.flat_search(&q, 2, None);
        assert_eq!(flat.0.len(), 2);
        assert_eq!(flat.0[0].shot.shot, ShotId(1));
        assert_eq!(db.hierarchical_search(&q, 2, None), flat);
        assert_eq!(db.planned_search(&q, 2, None), flat);
    }

    #[test]
    fn empty_database_searches_cleanly() {
        let mut db = VideoDatabase::medical();
        db.build();
        let (hits, stats) = db.flat_search(&[0.0; 266], 5, None);
        assert!(hits.is_empty());
        assert_eq!(stats.comparisons, 0);
        let (hits, _) = db.hierarchical_search(&[0.0; 266], 5, None);
        assert!(hits.is_empty());
    }

    #[test]
    fn record_lookup_roundtrips() {
        let (db, _) = synthetic_db(50, 4);
        let r = ShotRef {
            video: VideoId(0),
            shot: ShotId(7),
        };
        assert_eq!(db.record(r).unwrap().shot, r);
        assert!(db
            .record(ShotRef {
                video: VideoId(9),
                shot: ShotId(0)
            })
            .is_none());
        assert_eq!(db.len(), 50);
    }

    /// Flat and planned results after incremental appends must be
    /// bit-identical to a from-scratch database over the same records.
    fn assert_search_identical(incremental: &VideoDatabase, queries: &[Vec<f32>]) {
        let mut rebuilt = VideoDatabase::new(incremental.hierarchy().clone(), incremental.config());
        for r in incremental.records_iter() {
            rebuilt
                .try_insert_shot(r.shot, r.features.clone(), r.event, r.scene_node)
                .unwrap();
        }
        rebuilt.build();
        for q in queries {
            let (a, _) = incremental.flat_search(q, 7, None);
            let (b, _) = rebuilt.flat_search(q, 7, None);
            assert_eq!(a, b, "flat results diverged");
            let (a, _) = incremental.planned_search(q, 7, None);
            let (b, _) = rebuilt.planned_search(q, 7, None);
            assert_eq!(a, b, "planned results diverged");
        }
    }

    #[test]
    fn append_shot_keeps_results_identical_to_rebuild() {
        let (mut db, queries) = synthetic_db(120, 7);
        let scenes = db.hierarchy().scene_nodes();
        let mut rng = StdRng::seed_from_u64(77);
        let mut extra_queries = queries.clone();
        for i in 0..40 {
            let node = scenes[(i * 3) % scenes.len()];
            let mut f = vec![0.0f32; 266];
            let base = (node.0 * 11) % 260;
            f[base] = 0.7 + rng.gen_range(-0.05..0.05);
            f[(base + 5) % 266] = 0.3;
            db.append_shot(
                ShotRef {
                    video: VideoId(9),
                    shot: ShotId(i),
                },
                f.clone(),
                EventKind::Dialog,
                node,
            )
            .unwrap();
            if i % 13 == 0 {
                extra_queries.push(f);
            }
        }
        assert!(db.is_built(), "appends keep the index serving");
        assert_eq!(db.drift(), 40);
        assert_eq!(db.len(), 160);
        assert_search_identical(&db, &extra_queries);
    }

    #[test]
    fn compact_folds_drift_back_in() {
        let (mut db, queries) = synthetic_db(80, 8);
        let scenes = db.hierarchy().scene_nodes();
        for i in 0..10 {
            let mut f = vec![0.0f32; 266];
            f[(i * 13) % 266] = 1.0;
            db.append_shot(
                ShotRef {
                    video: VideoId(5),
                    shot: ShotId(i),
                },
                f,
                EventKind::Presentation,
                scenes[i % scenes.len()],
            )
            .unwrap();
        }
        assert_eq!(db.drift(), 10);
        db.compact();
        assert_eq!(db.drift(), 0);
        assert!(db.is_built());
        assert_eq!(db.len(), 90);
        assert_search_identical(&db, &queries);
        // After compaction the quantized block covers everything again.
        assert!(db.quantized_bytes() > 0);
    }

    #[test]
    fn append_into_empty_built_database_is_searchable() {
        let mut db = VideoDatabase::medical();
        db.build();
        let scenes = db.hierarchy().scene_nodes();
        let mut f = vec![0.0f32; 266];
        f[4] = 1.0;
        db.append_shot(
            ShotRef {
                video: VideoId(0),
                shot: ShotId(0),
            },
            f.clone(),
            EventKind::Dialog,
            scenes[0],
        )
        .unwrap();
        let (hits, _) = db.planned_search(&f, 3, None);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].distance < 1e-9);
        let (hits, _) = db.hierarchical_search(&f, 3, None);
        assert!(!hits.is_empty());
    }

    #[test]
    fn append_rejects_invalid_records() {
        let (mut db, _) = synthetic_db(10, 9);
        let scenes = db.hierarchy().scene_nodes();
        let dupe = ShotRef {
            video: VideoId(0),
            shot: ShotId(0),
        };
        assert!(matches!(
            db.append_shot(dupe, vec![0.0; 266], EventKind::Dialog, scenes[0]),
            Err(RecordError::DuplicateShot(_))
        ));
        let fresh = ShotRef {
            video: VideoId(9),
            shot: ShotId(9),
        };
        assert!(matches!(
            db.append_shot(fresh, vec![0.0; 3], EventKind::Dialog, scenes[0]),
            Err(RecordError::DimensionMismatch { .. })
        ));
        assert_eq!(db.drift(), 0, "rejected appends leave no drift");
    }

    #[test]
    fn epoch_clones_share_record_storage() {
        let (db, _) = synthetic_db(50, 10);
        let mut next = db.clone();
        let scenes = db.hierarchy().scene_nodes();
        next.append_shot(
            ShotRef {
                video: VideoId(3),
                shot: ShotId(0),
            },
            vec![0.5; 266],
            EventKind::Dialog,
            scenes[0],
        )
        .unwrap();
        // The frozen prefix is the same allocation in both generations.
        assert!(Arc::ptr_eq(&db.base, &next.base));
        assert_eq!(db.len() + 1, next.len());
    }

    #[test]
    fn rebuild_after_insert_is_required_and_works() {
        let (mut db, queries) = synthetic_db(100, 5);
        let scenes = db.hierarchy().scene_nodes();
        db.insert_shot(
            ShotRef {
                video: VideoId(1),
                shot: ShotId(0),
            },
            queries[0].clone(),
            EventKind::Dialog,
            scenes[0],
        );
        db.build();
        let (hits, _) = db.hierarchical_search(&queries[0], 3, None);
        assert!(!hits.is_empty());
    }
}
