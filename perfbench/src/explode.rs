//! The decode step taken apart into its public calls, for the traced run.
//!
//! `DecoderContext::decode_events` fuses three layers: the space-time graph
//! cache (build or in-place re-weight), the matching backend, and the
//! assembly of the outcome.  [`Exploded`] makes the same calls one by one —
//! `graph_key` → `SpaceTimeGraph::{build, reweight}` → `vertex_of` →
//! `DecoderBackend::decode_defects` — with a span around each, then runs
//! the fused context on the same events and checks that both agree on the
//! matching weight and on the number of graph builds and re-weights.

use crate::stats::{mean_us, quantile_us};
use crate::trace::Tracer;
use q3de::decoder::{
    graph_key, DecodeOutcome, DecoderBackend, DecoderConfig, DecoderContext, DetectionEvent,
    GraphKey, SpaceTimeGraph, WeightModel,
};
use q3de::lattice::MatchingGraph;

/// Counters gathered at the decode boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecodeCounts {
    pub match_calls: u64,
    pub defects_total: u64,
    pub defects_max: u64,
    pub builds: u64,
    pub reweights: u64,
}

/// Disagreements between the exploded calls and the fused context.
#[derive(Debug, Clone, Default)]
pub struct CrossCheck {
    pub weight_mismatches: u64,
    pub counter_mismatches: u64,
}

impl CrossCheck {
    pub fn passed(&self) -> bool {
        self.weight_mismatches == 0 && self.counter_mismatches == 0
    }
}

struct Cache {
    key: GraphKey,
    spacetime: SpaceTimeGraph,
    model: WeightModel,
}

/// A decoder that records a span per layer and cross-checks itself against
/// a fused [`DecoderContext`] of the same configuration.
pub struct Exploded {
    backend: Box<dyn DecoderBackend + Send>,
    cache: Option<Cache>,
    defects: Vec<usize>,
    fused: DecoderContext,
    pub counts: DecodeCounts,
    pub check: CrossCheck,
}

impl Exploded {
    pub fn new(config: DecoderConfig) -> Self {
        Self {
            backend: config.backend(),
            cache: None,
            defects: Vec::new(),
            fused: DecoderContext::new(config),
            counts: DecodeCounts::default(),
            check: CrossCheck::default(),
        }
    }

    /// Decodes `events` over a `num_layers`-deep window, as
    /// `DecoderContext::decode_events` does, and returns the fused
    /// context's outcome.
    pub fn decode(
        &mut self,
        tracer: &mut Tracer,
        request: u64,
        graph: &MatchingGraph,
        num_layers: usize,
        events: Vec<DetectionEvent>,
        model: &WeightModel,
    ) -> DecodeOutcome {
        if events.is_empty() {
            // The fused context returns before touching its cache; so do we.
            return DecodeOutcome::default();
        }
        let num_layers = num_layers.max(1);
        // The fused call runs first, on the inputs as the program sees
        // them; the exploded calls then repeat its work layer by layer.
        let fused = &mut self.fused;
        let outcome = tracer.span("decode", request, |_| {
            fused.decode_events(graph, num_layers, events.clone(), model)
        });
        let key = graph_key(graph, num_layers);
        match &mut self.cache {
            Some(cache) if cache.key == key => {
                if cache.model != *model {
                    tracer.span("graph.reweight", request, |_| {
                        cache.spacetime.reweight(graph, Some(&cache.model), model)
                    });
                    cache.model = model.clone();
                    self.counts.reweights += 1;
                }
            }
            _ => {
                let spacetime = tracer.span("graph.build", request, |_| {
                    SpaceTimeGraph::build(graph, num_layers, model)
                });
                self.cache = Some(Cache {
                    key,
                    spacetime,
                    model: model.clone(),
                });
                self.counts.builds += 1;
            }
        }
        let spacetime = &self
            .cache
            .as_ref()
            .expect("cache installed above")
            .spacetime;
        self.defects.clear();
        self.defects
            .extend(events.iter().map(|&e| spacetime.vertex_of(e)));
        let backend = &mut self.backend;
        let defects = &self.defects;
        let matching = tracer.span("match", request, |_| {
            backend.decode_defects(spacetime.graph(), defects)
        });
        let n = self.defects.len() as u64;
        self.counts.match_calls += 1;
        self.counts.defects_total += n;
        self.counts.defects_max = self.counts.defects_max.max(n);
        let exploded_weight: f64 = matching.pairs.iter().map(|p| p.cost).sum::<f64>()
            + matching.boundary.iter().map(|b| b.cost).sum::<f64>();

        let tolerance = 1e-9 * outcome.total_weight.abs().max(1.0);
        if (outcome.total_weight - exploded_weight).abs() > tolerance {
            self.check.weight_mismatches += 1;
        }
        if self.fused.graph_builds() != self.counts.builds
            || self.fused.reweights() != self.counts.reweights
        {
            self.check.counter_mismatches += 1;
        }
        outcome
    }
}

/// The per-layer metrics of the decode boundaries: matching, the graph
/// cache, and the fused decode's own time outside matching.
pub fn layer_metrics(tracer: &Tracer, counts: &DecodeCounts) -> Vec<(&'static str, f64)> {
    let matches = tracer.durations("match");
    let decodes = tracer.durations("decode");
    let match_ns: u64 = matches.iter().sum();
    let decode_ns: u64 = decodes.iter().sum();
    let self_us = decode_ns.saturating_sub(match_ns) as f64 / decodes.len().max(1) as f64 / 1e3;
    vec![
        ("match.calls", counts.match_calls as f64),
        (
            "match.defects_mean",
            counts.defects_total as f64 / counts.match_calls.max(1) as f64,
        ),
        ("match.defects_max", counts.defects_max as f64),
        ("match.us_p50", quantile_or_zero(&matches, 0.50)),
        ("match.us_p99", quantile_or_zero(&matches, 0.99)),
        ("graph.builds", counts.builds as f64),
        ("graph.reweights", counts.reweights as f64),
        ("graph.build_us", mean_us(&tracer.durations("graph.build"))),
        (
            "graph.reweight_us",
            mean_us(&tracer.durations("graph.reweight")),
        ),
        ("decode.self_us", self_us),
    ]
}

fn quantile_or_zero(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        quantile_us(samples, q)
    }
}
