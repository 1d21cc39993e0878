//! The program under test, assembled from forest bytes through public
//! APIs only: parsed forest → the four engine layouts → prepared serve
//! model → running service → first verified answer. Building it is what
//! `setup_s` times; [`Live`] is the running service seen as a
//! [`Server`] whose every answer is checked against the oracle of the
//! model version that served it.

use crate::inputs::{Inputs, CALIBRATION_ROWS};
use crate::load::{Server, Verdict};
use crate::spans::{SpanId, SpanLog};
use rfx_core::pack::{FrequencyProfile, PackPlan, PackedFilForest};
use rfx_core::{FilForest, QFilForest};
use rfx_forest::serialize::read_forest;
use rfx_forest::RandomForest;
use rfx_serve::{
    BackendKind, ModelVersion, RfxServe, SchedulePolicy, ServeConfig, ServeModel, Ticket,
};
use rfx_telemetry::{Telemetry, TraceConfig};
use std::sync::Mutex;

/// Seconds spent in each step of a cold start, in call order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    pub read: f64,
    pub fil: f64,
    pub qfil8: f64,
    pub profile: f64,
    pub packed_fil: f64,
    /// `ServeModel::prepare`: builds the hierarchical layout.
    pub prepare: f64,
    pub start: f64,
    pub first_answer: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.read
            + self.fil
            + self.qfil8
            + self.profile
            + self.packed_fil
            + self.prepare
            + self.start
            + self.first_answer
    }
}

pub struct Stack {
    pub model: ServeModel,
    pub fil: FilForest,
    pub qfil8: QFilForest<u8>,
    pub packed_fil: PackedFilForest,
    pub serve: RfxServe,
    pub times: SetupTimes,
    /// Whether the first single-row answer equalled the oracle.
    pub first_answer_correct: bool,
}

/// `ServeConfig::default()` on the one backend every later PR keeps:
/// the sharded CPU engine, pinned, so scheduling cannot route around
/// the code being measured.
///
/// The admission queue is 16 times the default 4096 rows. The sandbox
/// freezes for 150 ms and more a few times an hour; at the swap
/// workload's 32 k rows/s the default queue then overflowed in one run
/// of seven, and a refused request fails the whole run. With room for
/// two seconds of arrivals the same freeze becomes late answers, which
/// `deadline_ok_share` counts.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        backends: vec![BackendKind::CpuSharded],
        policy: SchedulePolicy::Fixed(BackendKind::CpuSharded),
        queue_capacity: 1 << 16,
        ..ServeConfig::default()
    }
}

/// Span ring of a traced service: every batch of a run leaves five
/// spans, and none may be evicted before the stage means are read.
const TRACED_SPAN_CAPACITY: usize = 1 << 18;

/// One cold start. `traced` starts the service on a telemetry domain
/// that samples every batch into a ring large enough for the run.
pub fn cold_start(inputs: &Inputs, traced: bool, spans: &SpanLog, parent: SpanId) -> Stack {
    let mut times = SetupTimes::default();
    let forest: RandomForest;
    (forest, times.read) = spans.timed("forest.read", parent, |_| {
        read_forest(&inputs.forest_a[..]).expect("forest bytes this build generated")
    });
    let fil;
    (fil, times.fil) = spans.timed("core.fil.build", parent, |_| FilForest::build(&forest));
    let qfil8;
    (qfil8, times.qfil8) = spans.timed("core.qfil8.build", parent, |_| {
        QFilForest::<u8>::build(&forest).expect("generated forests fit the u8 node budget")
    });
    let profile;
    (profile, times.profile) = spans.timed("core.pack.profile", parent, |_| {
        FrequencyProfile::collect(&forest, inputs.queries(CALIBRATION_ROWS.min(inputs.rows())))
    });
    let packed_fil;
    (packed_fil, times.packed_fil) = spans.timed("core.packed_fil.build", parent, |_| {
        PackedFilForest::build(&forest, &profile, PackPlan::default())
            .expect("the default pack plan is valid")
    });
    let model;
    (model, times.prepare) = spans.timed("serve.prepare", parent, |_| {
        ServeModel::prepare(forest).expect("generated forests fit the device budgets")
    });
    let serve;
    (serve, times.start) = spans.timed("serve.start", parent, |_| {
        if traced {
            let telemetry = Telemetry::with_trace_config(TraceConfig {
                sample_every_n: 1,
                capacity: TRACED_SPAN_CAPACITY,
            });
            RfxServe::start_with_telemetry(model.clone(), serve_config(), telemetry)
        } else {
            RfxServe::start(model.clone(), serve_config())
        }
    });
    let answer;
    (answer, times.first_answer) = spans.timed("serve.first_answer", parent, |_| {
        serve.submit(&inputs.pool[..inputs.features]).and_then(|ticket| ticket.wait_one())
    });
    let first_answer_correct = answer == Ok(inputs.oracle_a[0]);
    Stack { model, fil, qfil8, packed_fil, serve, times, first_answer_correct }
}

/// Which of the two forests a model version holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    A,
    B,
}

/// A running service plus what is needed to check its answers.
pub struct Live<'a> {
    pub serve: &'a RfxServe,
    inputs: &'a Inputs,
    /// Publish order; `v1` is forest A.
    versions: Mutex<Vec<(ModelVersion, Side)>>,
}

impl<'a> Live<'a> {
    pub fn new(serve: &'a RfxServe, inputs: &'a Inputs) -> Live<'a> {
        Live { serve, inputs, versions: Mutex::new(vec![(serve.active_version(), Side::A)]) }
    }

    fn side_of(&self, version: ModelVersion) -> Option<Side> {
        let versions = self.versions.lock().expect("no holder of the version lock panics");
        versions.iter().find(|(v, _)| *v == version).map(|(_, side)| *side)
    }

    /// Publishes the forest of `side` as a new version and activates
    /// it; returns `(publish seconds, activate seconds)`.
    pub fn publish_and_activate(
        &self,
        side: Side,
        spans: &SpanLog,
        parent: SpanId,
    ) -> Result<(f64, f64), String> {
        let bytes = match side {
            Side::A => &self.inputs.forest_a,
            Side::B => &self.inputs.forest_b,
        };
        let forest = read_forest(&bytes[..]).map_err(|e| format!("forest {side:?}: {e}"))?;
        let (version, publish_s) =
            spans.timed("serve.publish", parent, |_| self.serve.publish_forest(forest));
        let version = version.map_err(|e| format!("publish: {e}"))?;
        // Before `activate`, so that no ticket can report a version this
        // map does not know.
        self.versions.lock().expect("no holder of the version lock panics").push((version, side));
        let (activated, activate_s) =
            spans.timed("serve.activate", parent, |_| self.serve.activate(version));
        activated.map_err(|e| format!("activate: {e}"))?;
        Ok((publish_s, activate_s))
    }

    /// Publishes the forest the service is *not* serving and activates it.
    pub fn swap(&self, spans: &SpanLog, parent: SpanId) -> Result<(f64, f64), String> {
        let serving = self.side_of(self.serve.active_version()).ok_or("unknown active version")?;
        let next = match serving {
            Side::A => Side::B,
            Side::B => Side::A,
        };
        self.publish_and_activate(next, spans, parent)
    }
}

impl Server for Live<'_> {
    type Pending = Ticket;

    fn submit(&self, first_row: usize, rows: usize) -> Option<Ticket> {
        let nf = self.inputs.features;
        let features = &self.inputs.pool[first_row * nf..(first_row + rows) * nf];
        if rows == 1 {
            self.serve.submit(features)
        } else {
            self.serve.submit_micro_batch(features)
        }
        .ok()
    }

    fn wait(&self, first_row: usize, ticket: Ticket) -> Verdict {
        let Ok(labels) = ticket.wait() else { return Verdict::Failed };
        let oracle = match ticket.served_version().and_then(|v| self.side_of(v)) {
            Some(Side::A) => &self.inputs.oracle_a,
            Some(Side::B) => &self.inputs.oracle_b,
            None => return Verdict::Wrong,
        };
        if labels[..] == oracle[first_row..first_row + labels.len()] {
            Verdict::Correct
        } else {
            Verdict::Wrong
        }
    }
}
