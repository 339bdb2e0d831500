//! The experiment plan: a deduplicated list of experiment points, each
//! of which may depend on points planned before it, run by workers that
//! claim the points in insertion order.
//!
//! A *point* is one unit of experiment work (typically: compile a
//! session — usually through the [`SessionCache`] — run it, reduce the
//! report to a row). Points carry a caller-chosen 64-bit content key;
//! adding a key that is already planned returns the existing
//! [`PointId`] instead of queuing duplicate work, which is how a
//! batch-curve binary and an ablation binary sharing a (model, batch,
//! config) point evaluate it once.
//!
//! Execution is deterministic *in its results*: [`ExperimentPlan::run`]
//! returns one result slot per point in insertion order, whatever the
//! thread schedule did. With `jobs = 1` the calling thread runs every
//! point and nothing is spawned.
//!
//! [`SessionCache`]: crate::SessionCache

use crate::HarnessError;
use std::sync::{Condvar, Mutex};

/// Handle to one planned point, also its index into the result vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointId(usize);

impl PointId {
    /// The point's index in plan/result order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Dependency results handed to a running job.
///
/// Holds clones of the declared dependencies' successful results,
/// taken just before the job starts so the job runs without holding
/// any scheduler lock.
#[derive(Debug)]
pub struct PlanCtx<R> {
    deps: Vec<(PointId, R)>,
}

impl<R> PlanCtx<R> {
    /// The result of a declared dependency, if it was declared.
    pub fn dep(&self, id: PointId) -> Option<&R> {
        self.deps.iter().find(|(d, _)| *d == id).map(|(_, r)| r)
    }

    /// The result of a declared dependency, as an error when the point
    /// never declared `id` as a dependency.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Config`] for undeclared dependencies — the
    /// scheduler only guarantees completion ordering for declared
    /// edges, so reading anything else would race.
    pub fn require(&self, id: PointId) -> Result<&R, HarnessError> {
        self.dep(id).ok_or_else(|| {
            HarnessError::Config(format!("point read undeclared dependency #{}", id.0))
        })
    }
}

type Job<'env, R> = Box<dyn FnOnce(&PlanCtx<R>) -> Result<R, HarnessError> + Send + 'env>;

struct Point<'env, R> {
    key: u64,
    label: String,
    deps: Vec<PointId>,
    job: Job<'env, R>,
}

/// A deduplicated list of experiment points, each depending only on
/// points planned before it.
///
/// `R` is the per-point result type; it must be `Clone` so dependency
/// results can be handed to dependent jobs without keeping the
/// scheduler locked, and `Send` so results can cross worker threads.
pub struct ExperimentPlan<'env, R> {
    points: Vec<Point<'env, R>>,
}

impl<R> std::fmt::Debug for ExperimentPlan<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentPlan")
            .field("points", &self.points.len())
            .finish()
    }
}

impl<R> Default for ExperimentPlan<'_, R> {
    fn default() -> Self {
        ExperimentPlan { points: Vec::new() }
    }
}

/// The worker count suggested by the machine (the `--jobs` default).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl<'env, R: Clone + Send> ExperimentPlan<'env, R> {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of (deduplicated) points planned.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plan has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The label a point was planned with.
    pub fn label(&self, id: PointId) -> &str {
        &self.points[id.0].label
    }

    /// Plans one point.
    ///
    /// `key` is a caller-chosen content hash of everything that
    /// determines the point's result (e.g. a session fingerprint from
    /// `dtu_compiler::session_fingerprint`, possibly folded with a
    /// workload discriminant). If `key` is already planned, the
    /// existing point's id is returned and `job` is dropped — the plan
    /// stays deduplicated. A job may read only its declared deps via
    /// [`PlanCtx`]. A failed dependency fails this point with
    /// [`HarnessError::DependencyFailed`] without running its job.
    ///
    /// # Panics
    ///
    /// When a dependency is not an earlier point of this plan (an id
    /// from another plan): workers claim points in insertion order and
    /// would wait for it forever.
    pub fn add_point(
        &mut self,
        key: u64,
        label: impl Into<String>,
        deps: &[PointId],
        job: impl FnOnce(&PlanCtx<R>) -> Result<R, HarnessError> + Send + 'env,
    ) -> PointId {
        if let Some(late) = deps.iter().find(|d| d.0 >= self.points.len()) {
            panic!(
                "dependency #{} is not an earlier point of this plan",
                late.0
            );
        }
        if let Some(existing) = self.points.iter().position(|p| p.key == key) {
            return PointId(existing);
        }
        let id = PointId(self.points.len());
        self.points.push(Point {
            key,
            label: label.into(),
            deps: deps.to_vec(),
            job: Box::new(job),
        });
        id
    }

    /// Runs every point and returns one result per point, in insertion
    /// order regardless of schedule.
    ///
    /// `jobs` workers (clamped to at least 1 and at most the number of
    /// points) each claim the next unclaimed point in insertion order;
    /// the calling thread is one of them, so `jobs = 1` spawns nothing.
    /// A point whose dependencies are still running waits for them.
    /// Since every dependency was planned, and so claimed, before its
    /// dependents, the earliest unfinished point never waits.
    pub fn run(self, jobs: usize) -> Vec<Result<R, HarnessError>> {
        let n = self.points.len();
        let (mut labels, mut deps, mut pending) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for point in self.points {
            labels.push(point.label);
            deps.push(point.deps);
            pending.push(Some(point.job));
        }
        let claims = Mutex::new(Claims {
            next: 0,
            pending,
            results: (0..n).map(|_| None).collect(),
            waiting: 0,
        });
        let finished = Condvar::new();
        let work = || {
            let mut state = claims.lock().expect("plan lock");
            while state.next < n {
                let idx = state.next;
                state.next += 1;
                while deps[idx].iter().any(|d| state.results[d.0].is_none()) {
                    state.waiting += 1;
                    state = finished.wait(state).expect("plan lock");
                    state.waiting -= 1;
                }
                let failed = deps[idx]
                    .iter()
                    .find(|d| matches!(state.results[d.0], Some(Err(_))));
                let outcome = match failed {
                    Some(d) => Err(HarnessError::DependencyFailed {
                        dep: labels[d.0].clone(),
                    }),
                    None => {
                        let ctx = PlanCtx {
                            deps: deps[idx]
                                .iter()
                                .map(|&d| {
                                    let r =
                                        state.results[d.0].as_ref().and_then(|r| r.as_ref().ok());
                                    (d, r.expect("dependency finished without error").clone())
                                })
                                .collect(),
                        };
                        let job = state.pending[idx]
                            .take()
                            .expect("each point is claimed once");
                        drop(state);
                        let outcome = run_job(job, &ctx, &labels[idx]);
                        state = claims.lock().expect("plan lock");
                        outcome
                    }
                };
                state.results[idx] = Some(outcome);
                if state.waiting > 0 {
                    finished.notify_all();
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..jobs.clamp(1, n.max(1)) {
                scope.spawn(work);
            }
            work();
        });
        claims
            .into_inner()
            .expect("plan lock")
            .results
            .into_iter()
            .map(|r| r.expect("every point ran"))
            .collect()
    }
}

/// The shared state of a run: the next point to claim, the jobs not yet
/// claimed, each finished point's result, and how many workers wait for
/// a dependency (notifying is a system call, so it is skipped when none
/// waits).
struct Claims<'env, R> {
    next: usize,
    pending: Vec<Option<Job<'env, R>>>,
    results: Vec<Option<Result<R, HarnessError>>>,
    waiting: usize,
}

fn run_job<'env, R>(job: Job<'env, R>, ctx: &PlanCtx<R>, label: &str) -> Result<R, HarnessError> {
    job(ctx).map_err(|e| match e {
        // Keep structured errors; wrap anything else with the label.
        HarnessError::DependencyFailed { .. } | HarnessError::Config(_) => e,
        HarnessError::Job { label: l, message } if !l.is_empty() => {
            HarnessError::Job { label: l, message }
        }
        HarnessError::Job { message, .. } => HarnessError::Job {
            label: label.to_string(),
            message,
        },
    })
}

/// Wraps any error into a job failure with the label filled in later
/// by the scheduler.
impl From<dtu::DtuError> for HarnessError {
    fn from(e: dtu::DtuError) -> Self {
        HarnessError::Job {
            label: String::new(),
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_insertion_order() {
        for jobs in [1, 2, 8] {
            let mut plan = ExperimentPlan::new();
            for i in 0..40u64 {
                plan.add_point(i, format!("p{i}"), &[], move |_| Ok(i * 10));
            }
            let results = plan.run(jobs);
            let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, (0..40).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn duplicate_keys_coalesce_and_run_once() {
        let runs = AtomicUsize::new(0);
        let mut plan = ExperimentPlan::new();
        let a = plan.add_point(7, "a", &[], |_| {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok(1)
        });
        let b = plan.add_point(7, "b", &[], |_| {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok(2)
        });
        assert_eq!(a, b);
        assert_eq!(plan.len(), 1);
        let results = plan.run(4);
        assert_eq!(results, vec![Ok(1)]);
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dependencies_see_dependency_results() {
        for jobs in [1, 4] {
            let mut plan = ExperimentPlan::new();
            let a = plan.add_point(1, "a", &[], |_| Ok(5u64));
            let b = plan.add_point(2, "b", &[], |_| Ok(6u64));
            let c = plan.add_point(3, "sum", &[a, b], move |ctx| {
                Ok(ctx.require(a)? + ctx.require(b)?)
            });
            let results = plan.run(jobs);
            assert_eq!(results[c.index()], Ok(11));
        }
    }

    #[test]
    fn failed_dependency_skips_dependents() {
        for jobs in [1, 4] {
            let mut plan = ExperimentPlan::new();
            let bad = plan.add_point(1, "bad", &[], |_| {
                Err::<u64, _>(HarnessError::Job {
                    label: "bad".into(),
                    message: "boom".into(),
                })
            });
            let child = plan.add_point(2, "child", &[bad], |_| Ok(1));
            let grandchild = plan.add_point(3, "grandchild", &[child], |_| Ok(2));
            let ok = plan.add_point(4, "ok", &[], |_| Ok(3));
            let results = plan.run(jobs);
            assert!(matches!(
                results[bad.index()],
                Err(HarnessError::Job { .. })
            ));
            assert_eq!(
                results[child.index()],
                Err(HarnessError::DependencyFailed { dep: "bad".into() })
            );
            assert_eq!(
                results[grandchild.index()],
                Err(HarnessError::DependencyFailed {
                    dep: "child".into()
                })
            );
            assert_eq!(results[ok.index()], Ok(3));
        }
    }

    #[test]
    fn undeclared_dependency_read_is_a_config_error() {
        let mut plan = ExperimentPlan::new();
        let a = plan.add_point(1, "a", &[], |_| Ok(1u64));
        let b = plan.add_point(2, "b", &[], move |ctx| Ok(*ctx.require(a)?));
        let results = plan.run(1);
        assert!(matches!(results[b.index()], Err(HarnessError::Config(_))));
    }

    #[test]
    fn deep_chains_complete_under_many_workers() {
        let mut plan = ExperimentPlan::new();
        let mut prev: Option<PointId> = None;
        for i in 0..64u64 {
            let deps: Vec<PointId> = prev.into_iter().collect();
            let p = prev;
            prev = Some(plan.add_point(i, format!("c{i}"), &deps, move |ctx| {
                Ok(match p {
                    Some(p) => ctx.require(p)? + 1,
                    None => 0u64,
                })
            }));
        }
        let results = plan.run(8);
        assert_eq!(*results.last().unwrap().as_ref().unwrap(), 63);
    }

    #[test]
    fn jobs_beyond_point_count_are_clamped() {
        let mut plan = ExperimentPlan::new();
        plan.add_point(1, "only", &[], |_| Ok(42u64));
        assert_eq!(plan.run(64), vec![Ok(42)]);
    }

    #[test]
    fn empty_plan_runs() {
        let plan: ExperimentPlan<u64> = ExperimentPlan::new();
        assert!(plan.run(4).is_empty());
        assert!(ExperimentPlan::<u64>::new().run(1).is_empty());
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "dependency #1 is not an earlier point of this plan")]
    fn a_dependency_from_another_plan_is_refused() {
        let mut other = ExperimentPlan::new();
        other.add_point(1, "a", &[], |_| Ok(1u64));
        let foreign = other.add_point(2, "b", &[], |_| Ok(2u64));
        let mut plan = ExperimentPlan::new();
        plan.add_point(3, "c", &[], |_| Ok(3u64));
        plan.add_point(4, "d", &[foreign], |_| Ok(4u64));
    }

    /// A generated point: its key (few distinct, so keys repeat), picks
    /// among the ids the points before it got, and whether its job
    /// fails (when 0, one in five).
    type Shape = (u64, Vec<usize>, u8);

    /// The dependencies `picks` names among the ids handed out so far.
    fn picked(ids: &[PointId], picks: &[usize]) -> Vec<PointId> {
        if ids.is_empty() {
            return Vec::new();
        }
        picks.iter().map(|p| ids[p % ids.len()]).collect()
    }

    fn random_plan(shapes: &[Shape]) -> ExperimentPlan<'static, u64> {
        let mut plan = ExperimentPlan::new();
        let mut ids = Vec::new();
        for (i, (key, picks, fail)) in shapes.iter().enumerate() {
            let deps = picked(&ids, picks);
            let (key, fails, reads) = (*key, *fail == 0, deps.clone());
            ids.push(plan.add_point(key, format!("p{i}"), &deps, move |ctx| {
                if fails {
                    return Err(HarnessError::Job {
                        label: String::new(),
                        message: "boom".into(),
                    });
                }
                reads
                    .iter()
                    .try_fold(key, |sum, &d| Ok(sum.wrapping_add(*ctx.require(d)?)))
            }));
        }
        plan
    }

    /// The serial reference: a point's value is its key plus its
    /// dependencies' values, a failing job gives its own error, and a
    /// failed dependency gives `DependencyFailed` naming the first one
    /// declared.
    fn serial_results(shapes: &[Shape]) -> Vec<Result<u64, HarnessError>> {
        let (mut keys, mut labels, mut ids) = (Vec::new(), Vec::<String>::new(), Vec::new());
        let mut results: Vec<Result<u64, HarnessError>> = Vec::new();
        for (i, (key, picks, fail)) in shapes.iter().enumerate() {
            let deps = picked(&ids, picks);
            if let Some(existing) = keys.iter().position(|k| k == key) {
                ids.push(PointId(existing));
                continue;
            }
            let label = format!("p{i}");
            results.push(match deps.iter().find(|d| results[d.0].is_err()) {
                Some(d) => Err(HarnessError::DependencyFailed {
                    dep: labels[d.0].clone(),
                }),
                None if *fail == 0 => Err(HarnessError::Job {
                    label: label.clone(),
                    message: "boom".into(),
                }),
                None => Ok(deps.iter().fold(*key, |sum, d| {
                    sum.wrapping_add(*results[d.0].as_ref().expect("checked ok"))
                })),
            });
            ids.push(PointId(keys.len()));
            keys.push(*key);
            labels.push(label);
        }
        results
    }

    proptest! {
        #[test]
        fn random_plans_match_a_serial_evaluation(
            shapes in prop::collection::vec(
                (0u64..24, prop::collection::vec(0usize..64, 0..4), 0u8..5),
                1..=40,
            ),
        ) {
            let want = serial_results(&shapes);
            for jobs in [1, 2, 4, 8] {
                prop_assert_eq!(&random_plan(&shapes).run(jobs), &want, "jobs {}", jobs);
            }
        }
    }
}
