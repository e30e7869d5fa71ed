//! The discrete-event executor.
//!
//! Resources are device compute units and per-link-class send ports. Each
//! resource runs one task at a time; among ready tasks queued on a resource
//! the one with the lowest priority value starts first. Time advances
//! through a finish-event heap — the standard event-driven simulation loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use amped_obs::Observer;

use crate::fault::FaultSchedule;
use crate::graph::{LinkClass, TaskGraph, TaskId, TaskKind};
use crate::timeline::{Activity, Timeline};

/// Link parameters the executor prices transfers with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Intra-node latency in seconds.
    pub intra_latency_s: f64,
    /// Intra-node bandwidth in bits/s (per accelerator).
    pub intra_bw_bps: f64,
    /// Inter-node latency in seconds.
    pub inter_latency_s: f64,
    /// Inter-node bandwidth in bits/s (effective per accelerator).
    pub inter_bw_bps: f64,
}

impl NetworkParams {
    fn transfer_time(&self, bytes: f64, link: LinkClass) -> f64 {
        let (lat, bw) = match link {
            LinkClass::Intra => (self.intra_latency_s, self.intra_bw_bps),
            LinkClass::Inter => (self.inter_latency_s, self.inter_bw_bps),
        };
        lat + bytes * 8.0 / bw
    }
}

/// Per-device accounting after a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceStats {
    /// Seconds the compute unit was busy.
    pub compute_busy_s: f64,
    /// Seconds the device's send ports were busy.
    pub comm_busy_s: f64,
    /// Completion time of the device's last task.
    pub last_finish_s: f64,
}

impl DeviceStats {
    /// Compute utilization relative to the whole-run makespan.
    pub fn utilization(&self, makespan_s: f64) -> f64 {
        if makespan_s > 0.0 {
            self.compute_busy_s / makespan_s
        } else {
            0.0
        }
    }
}

/// The result of executing a task graph.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Total wall-clock time (the latest task completion).
    pub makespan_s: f64,
    /// Per-device accounting.
    pub device_stats: Vec<DeviceStats>,
    /// The full activity timeline.
    pub timeline: Timeline,
    /// Total bytes that crossed intra-node links.
    pub intra_bytes: f64,
    /// Total bytes that crossed inter-node links.
    pub inter_bytes: f64,
}

/// Executes [`TaskGraph`]s over a set of devices and links.
#[derive(Debug, Clone)]
pub struct Simulator {
    network: NetworkParams,
    faults: Option<FaultSchedule>,
    observer: Option<Arc<Observer>>,
}

// Resource indices: device d owns compute resource 3d, intra send port
// 3d+1, inter send port 3d+2.
const RES_PER_DEVICE: usize = 3;

fn resource_of(kind: &TaskKind) -> usize {
    match *kind {
        TaskKind::Compute { device, .. } => RES_PER_DEVICE * device,
        TaskKind::Transfer {
            src,
            link: LinkClass::Intra,
            ..
        } => RES_PER_DEVICE * src + 1,
        TaskKind::Transfer {
            src,
            link: LinkClass::Inter,
            ..
        } => RES_PER_DEVICE * src + 2,
    }
}

/// Total order over event timestamps: finite f64 plus a tie-breaking
/// sequence number. Panics on NaN at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct EventTime(f64);

impl EventTime {
    fn new(t: f64) -> Self {
        assert!(t.is_finite(), "event time must be finite, got {t}");
        EventTime(t)
    }
}

impl Eq for EventTime {}

impl PartialOrd for EventTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite by construction")
    }
}

impl Simulator {
    /// A simulator over the given link parameters.
    ///
    /// # Panics
    ///
    /// Panics if any bandwidth is non-positive or latency negative.
    pub fn new(network: NetworkParams) -> Self {
        assert!(
            network.intra_bw_bps > 0.0 && network.inter_bw_bps > 0.0,
            "bandwidths must be positive"
        );
        assert!(
            network.intra_latency_s >= 0.0 && network.inter_latency_s >= 0.0,
            "latencies must be non-negative"
        );
        Simulator {
            network,
            faults: None,
            observer: None,
        }
    }

    /// Record engine internals — events processed, peak event-queue depth
    /// — into `observer` after every run. Purely additive bookkeeping: the
    /// simulated makespan and timeline are bit-identical with or without
    /// an observer attached.
    pub fn with_observer(mut self, observer: Arc<Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Price tasks under a resolved fault schedule: straggler devices
    /// stretch their compute tasks, degraded links stretch transfers whose
    /// start time falls inside a fault window. Without this call the
    /// executor never consults fault state, keeping the no-fault path
    /// bit-identical to a simulator built before faults existed.
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.faults = Some(schedule);
        self
    }

    /// Execute `graph` to completion and return the outcome.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a dependency cycle (impossible for
    /// graphs built through [`TaskGraph::add`], which forbids forward
    /// references).
    pub fn run(&self, graph: &TaskGraph) -> SimOutcome {
        let n_tasks = graph.len();
        let n_devices = graph.num_devices();
        let mut pending: Vec<usize> = (0..n_tasks).map(|t| graph.preds(t).len()).collect();

        // Per-resource ready queues ordered by (priority, task id).
        let mut queues: Vec<BinaryHeap<Reverse<(u64, TaskId)>>> =
            (0..n_devices * RES_PER_DEVICE).map(|_| BinaryHeap::new()).collect();
        let mut busy: Vec<bool> = vec![false; n_devices * RES_PER_DEVICE];

        // Finish events: (time, seq, resource, task).
        let mut events: BinaryHeap<Reverse<(EventTime, u64, usize, TaskId)>> = BinaryHeap::new();
        let mut seq: u64 = 0;

        let mut stats = vec![DeviceStats::default(); n_devices];
        let mut timeline = Timeline::new(n_devices);
        let (mut intra_bytes, mut inter_bytes) = (0.0f64, 0.0f64);
        for t in graph.tasks() {
            if let TaskKind::Transfer { bytes, link, .. } = t.kind {
                match link {
                    LinkClass::Intra => intra_bytes += bytes,
                    LinkClass::Inter => inter_bytes += bytes,
                }
            }
        }
        let mut completed = 0usize;
        let mut now = 0.0f64;

        let duration_of = |kind: &TaskKind, now: f64| -> f64 {
            let base = match *kind {
                TaskKind::Compute { duration_s, .. } => duration_s,
                TaskKind::Transfer { bytes, link, .. } => self.network.transfer_time(bytes, link),
            };
            match &self.faults {
                None => base,
                Some(f) => f.adjust(kind, base, now),
            }
        };

        // Seed roots.
        for t in 0..n_tasks {
            if pending[t] == 0 {
                queues[resource_of(&graph.task(t).kind)].push(Reverse((graph.task(t).priority, t)));
            }
        }

        // Dispatch everything startable at the current time.
        let dispatch =
            |now: f64,
             queues: &mut Vec<BinaryHeap<Reverse<(u64, TaskId)>>>,
             busy: &mut Vec<bool>,
             events: &mut BinaryHeap<Reverse<(EventTime, u64, usize, TaskId)>>,
             seq: &mut u64,
             stats: &mut Vec<DeviceStats>,
             timeline: &mut Timeline| {
                for res in 0..queues.len() {
                    while !busy[res] {
                        let Some(Reverse((_, task))) = queues[res].pop() else {
                            break;
                        };
                        let t = graph.task(task);
                        let dur = duration_of(&t.kind, now);
                        busy[res] = true;
                        *seq += 1;
                        events.push(Reverse((EventTime::new(now + dur), *seq, res, task)));
                        match t.kind {
                            TaskKind::Compute { device, .. } => {
                                stats[device].compute_busy_s += dur;
                                // Checkpoint drains occupy the compute unit
                                // but are storage writes, not training math
                                // — give them their own timeline/trace
                                // category.
                                let activity = if t.label == "ckpt" {
                                    Activity::Checkpoint
                                } else {
                                    Activity::Compute
                                };
                                timeline.push(device, activity, now, now + dur, t.label);
                            }
                            TaskKind::Transfer { src, .. } => {
                                stats[src].comm_busy_s += dur;
                                timeline.push(src, Activity::Comm, now, now + dur, t.label);
                            }
                        }
                    }
                }
            };

        dispatch(
            now, &mut queues, &mut busy, &mut events, &mut seq, &mut stats, &mut timeline,
        );
        let mut max_queue_depth = events.len();

        while let Some(Reverse((time, _, res, task))) = events.pop() {
            now = time.0;
            busy[res] = false;
            completed += 1;
            let device = match graph.task(task).kind {
                TaskKind::Compute { device, .. } => device,
                TaskKind::Transfer { dst, .. } => dst,
            };
            stats[device].last_finish_s = stats[device].last_finish_s.max(now);
            if let TaskKind::Transfer { src, .. } = graph.task(task).kind {
                stats[src].last_finish_s = stats[src].last_finish_s.max(now);
            }
            for &succ in graph.succs(task) {
                pending[succ] -= 1;
                if pending[succ] == 0 {
                    let t = graph.task(succ);
                    queues[resource_of(&t.kind)].push(Reverse((t.priority, succ)));
                }
            }
            dispatch(
                now, &mut queues, &mut busy, &mut events, &mut seq, &mut stats, &mut timeline,
            );
            max_queue_depth = max_queue_depth.max(events.len());
        }

        assert_eq!(
            completed, n_tasks,
            "dependency cycle: {} of {} tasks completed",
            completed, n_tasks
        );

        if let Some(obs) = &self.observer {
            obs.add("sim.des.runs", 1);
            obs.add("sim.des.events_processed", completed as u64);
            obs.gauge_max("sim.des.max_queue_depth", max_queue_depth as f64);
        }

        timeline.set_makespan(now);
        SimOutcome {
            makespan_s: now,
            device_stats: stats,
            timeline,
            intra_bytes,
            inter_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;

    fn net() -> NetworkParams {
        NetworkParams {
            intra_latency_s: 1e-6,
            intra_bw_bps: 1e9, // 1 Gbit/s: 1 MB takes 8 ms
            inter_latency_s: 1e-5,
            inter_bw_bps: 1e8,
        }
    }

    fn compute(device: usize, duration_s: f64) -> TaskKind {
        TaskKind::Compute { device, duration_s }
    }

    #[test]
    fn serial_chain_sums_durations() {
        let mut g = TaskGraph::new(1);
        let a = g.add(compute(0, 1.0), "a", &[]);
        let b = g.add(compute(0, 2.0), "b", &[a]);
        let _c = g.add(compute(0, 3.0), "c", &[b]);
        let out = Simulator::new(net()).run(&g);
        assert!((out.makespan_s - 6.0).abs() < 1e-12);
        assert!((out.device_stats[0].compute_busy_s - 6.0).abs() < 1e-12);
        assert!((out.device_stats[0].utilization(out.makespan_s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_tasks_on_two_devices_overlap() {
        let mut g = TaskGraph::new(2);
        g.add(compute(0, 5.0), "a", &[]);
        g.add(compute(1, 5.0), "b", &[]);
        let out = Simulator::new(net()).run(&g);
        assert!((out.makespan_s - 5.0).abs() < 1e-12);
    }

    #[test]
    fn same_device_serializes() {
        let mut g = TaskGraph::new(1);
        g.add(compute(0, 5.0), "a", &[]);
        g.add(compute(0, 5.0), "b", &[]);
        let out = Simulator::new(net()).run(&g);
        assert!((out.makespan_s - 10.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_is_latency_plus_bytes_over_bw() {
        let mut g = TaskGraph::new(2);
        let a = g.add(compute(0, 1.0), "a", &[]);
        let t = g.add(
            TaskKind::Transfer {
                src: 0,
                dst: 1,
                bytes: 1e6,
                link: LinkClass::Intra,
            },
            "t",
            &[a],
        );
        g.add(compute(1, 1.0), "b", &[t]);
        let out = Simulator::new(net()).run(&g);
        let expect = 1.0 + (1e-6 + 8e6 / 1e9) + 1.0;
        assert!((out.makespan_s - expect).abs() < 1e-9, "{}", out.makespan_s);
    }

    #[test]
    fn transfer_overlaps_with_unrelated_compute() {
        // Device 0 computes while its send port pushes data out.
        let mut g = TaskGraph::new(2);
        g.add(compute(0, 1.0), "a", &[]);
        g.add(
            TaskKind::Transfer {
                src: 0,
                dst: 1,
                bytes: 1e8, // 0.8 s on intra
                link: LinkClass::Intra,
            },
            "t",
            &[],
        );
        let out = Simulator::new(net()).run(&g);
        assert!(out.makespan_s < 1.1, "compute and transfer must overlap");
    }

    #[test]
    fn priority_breaks_ties_on_a_resource() {
        let mut g = TaskGraph::new(1);
        let slow = g.add_with_priority(compute(0, 3.0), "low-prio", &[], 10);
        let fast = g.add_with_priority(compute(0, 1.0), "high-prio", &[], 1);
        let out = Simulator::new(net()).run(&g);
        // high-prio starts first: check via timeline ordering.
        let entries = out.timeline.entries();
        assert_eq!(entries[0].label, "high-prio");
        assert_eq!(entries[1].label, "low-prio");
        let _ = (slow, fast);
    }

    #[test]
    fn pipeline_bubble_emerges() {
        // 2-stage pipeline, 2 microbatches, unit compute, zero-cost links:
        // stage 1 idles one slot at the start => makespan 3 not 2.
        let mut g = TaskGraph::new(2);
        let f00 = g.add(compute(0, 1.0), "f00", &[]);
        let f01 = g.add(compute(1, 1.0), "f01", &[f00]);
        let f10 = g.add(compute(0, 1.0), "f10", &[]);
        let f11 = g.add(compute(1, 1.0), "f11", &[f10, f01]);
        let _ = f11;
        let out = Simulator::new(net()).run(&g);
        assert!((out.makespan_s - 3.0).abs() < 1e-9);
        let u1 = out.device_stats[1].utilization(out.makespan_s);
        assert!((u1 - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn inter_link_is_priced_differently() {
        let mut g = TaskGraph::new(2);
        g.add(
            TaskKind::Transfer {
                src: 0,
                dst: 1,
                bytes: 1e6,
                link: LinkClass::Inter,
            },
            "t",
            &[],
        );
        let out = Simulator::new(net()).run(&g);
        let expect = 1e-5 + 8e6 / 1e8;
        assert!((out.makespan_s - expect).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_finishes_instantly() {
        let g = TaskGraph::new(4);
        let out = Simulator::new(net()).run(&g);
        assert_eq!(out.makespan_s, 0.0);
        assert_eq!(out.device_stats.len(), 4);
    }

    #[test]
    fn straggler_stretches_its_device_compute() {
        let mut g = TaskGraph::new(2);
        g.add(compute(0, 1.0), "a", &[]);
        g.add(compute(1, 1.0), "b", &[]);
        let sched = crate::fault::FaultSchedule {
            compute_slowdown: vec![1.0, 3.0],
            link_faults: Vec::new(),
        };
        let out = Simulator::new(net()).with_fault_schedule(sched).run(&g);
        assert!((out.makespan_s - 3.0).abs() < 1e-12);
        assert!((out.device_stats[0].compute_busy_s - 1.0).abs() < 1e-12);
        assert!((out.device_stats[1].compute_busy_s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn link_fault_applies_only_inside_its_window() {
        use crate::fault::{FaultSchedule, LinkFault};
        // Two back-to-back 1 MB intra transfers (~8 ms each): a window
        // covering only the first stretches it 10x.
        let mut g = TaskGraph::new(2);
        let t1 = g.add(
            TaskKind::Transfer { src: 0, dst: 1, bytes: 1e6, link: LinkClass::Intra },
            "t1",
            &[],
        );
        g.add(
            TaskKind::Transfer { src: 0, dst: 1, bytes: 1e6, link: LinkClass::Intra },
            "t2",
            &[t1],
        );
        let base = 1e-6 + 8e6 / 1e9;
        let sched = FaultSchedule {
            compute_slowdown: vec![1.0, 1.0],
            link_faults: vec![LinkFault {
                device: 0,
                link: LinkClass::Intra,
                factor: 10.0,
                from_s: 0.0,
                until_s: base / 2.0, // open when t1 starts, closed before t2
            }],
        };
        let out = Simulator::new(net()).with_fault_schedule(sched).run(&g);
        assert!((out.makespan_s - 11.0 * base).abs() < 1e-9, "{}", out.makespan_s);
    }

    #[test]
    fn noop_fault_schedule_is_bit_identical_to_no_schedule() {
        let mut g = TaskGraph::new(2);
        let a = g.add(compute(0, 1.37), "a", &[]);
        let t = g.add(
            TaskKind::Transfer { src: 0, dst: 1, bytes: 3.3e6, link: LinkClass::Inter },
            "t",
            &[a],
        );
        g.add(compute(1, 0.91), "b", &[t]);
        let plain = Simulator::new(net()).run(&g);
        let sched = crate::fault::FaultSchedule {
            compute_slowdown: vec![1.0, 1.0],
            link_faults: Vec::new(),
        };
        let faulted = Simulator::new(net()).with_fault_schedule(sched).run(&g);
        assert_eq!(plain.makespan_s.to_bits(), faulted.makespan_s.to_bits());
    }

    #[test]
    fn observer_records_engine_internals_without_perturbing_results() {
        let mut g = TaskGraph::new(2);
        g.add(compute(0, 1.0), "a", &[]);
        g.add(compute(1, 2.0), "b", &[]);
        let plain = Simulator::new(net()).run(&g);
        let obs = Arc::new(Observer::new());
        let observed = Simulator::new(net())
            .with_observer(Arc::clone(&obs))
            .run(&g);
        assert_eq!(plain.makespan_s.to_bits(), observed.makespan_s.to_bits());
        let counters = obs.counters();
        assert_eq!(counters["sim.des.runs"], 1);
        assert_eq!(counters["sim.des.events_processed"], 2);
        assert!(obs.gauge("sim.des.max_queue_depth").get() >= 2.0);
    }

    #[test]
    fn ckpt_labeled_compute_gets_checkpoint_activity() {
        let mut g = TaskGraph::new(1);
        g.add(compute(0, 1.0), "ckpt", &[]);
        g.add(compute(0, 1.0), "fwd", &[]);
        let out = Simulator::new(net()).run(&g);
        let by_label = |l: &str| {
            out.timeline
                .entries()
                .iter()
                .find(|e| e.label == l)
                .unwrap()
                .activity
        };
        assert_eq!(by_label("ckpt"), Activity::Checkpoint);
        assert_eq!(by_label("fwd"), Activity::Compute);
    }

    #[test]
    #[should_panic(expected = "bandwidths must be positive")]
    fn zero_bandwidth_rejected() {
        Simulator::new(NetworkParams {
            intra_latency_s: 0.0,
            intra_bw_bps: 0.0,
            inter_latency_s: 0.0,
            inter_bw_bps: 1.0,
        });
    }
}
