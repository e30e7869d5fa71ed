//! Parameter sweeps — the machinery behind the paper's case-study figures,
//! packaged for reuse: evaluate a set of mappings across a set of batch
//! sizes and emit labelled series.

use std::collections::HashMap;

use amped_core::{AnalyticalBackend, CostBackend, Estimate, Parallelism, Result, TrainingConfig};

use crate::{Candidate, SearchEngine};

/// One evaluated sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The mapping label supplied by the caller.
    pub label: String,
    /// Global batch size of this point.
    pub global_batch: usize,
    /// The (microbatch-tuned) estimate.
    pub estimate: Estimate,
    /// Which [`CostBackend`] produced this cell.
    pub backend: &'static str,
}

/// One evaluated cell of the label × batch grid, with structured
/// coordinates — what consumers should read instead of re-parsing
/// [`SweepPoint::label`] strings.
#[derive(Debug, Clone, Copy)]
pub struct SweepCell<'a> {
    /// The mapping label supplied at [`Sweep::run`].
    pub label: &'a str,
    /// The mapping itself.
    pub parallelism: &'a Parallelism,
    /// Global batch size of this cell.
    pub global_batch: usize,
    /// Which [`CostBackend`] produced this cell.
    pub backend: &'static str,
    /// The cell's estimate.
    pub estimate: &'a Estimate,
}

/// One mapping's row across every batch size of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepRow<'a> {
    sweep: &'a Sweep,
    row: usize,
}

impl<'a> SweepRow<'a> {
    /// The mapping label supplied at [`Sweep::run`].
    pub fn label(&self) -> &'a str {
        &self.sweep.labels[self.row]
    }

    /// The mapping evaluated along this row.
    pub fn parallelism(&self) -> &'a Parallelism {
        &self.sweep.mappings[self.row]
    }

    /// This row's cells in batch order.
    pub fn cells(self) -> impl Iterator<Item = SweepCell<'a>> + 'a {
        let (sweep, row) = (self.sweep, self.row);
        (0..sweep.batches.len()).map(move |col| sweep.cell_at(row, col))
    }

    /// `(batch, total days)` pairs in batch order — ready to become a
    /// report series.
    pub fn days_points(&self) -> Vec<(f64, f64)> {
        self.cells()
            .map(|c| (c.global_batch as f64, c.estimate.days()))
            .collect()
    }
}

/// A grid of mappings × batch sizes, evaluated through a [`SearchEngine`]'s
/// configuration (efficiency, precision, engine options, power model).
///
/// Points are stored label-major, batch-minor, so every `(label, batch)`
/// cell resolves in O(1) through the label index built at construction —
/// [`Sweep::days_series`], [`Sweep::winners`] and [`Sweep::to_csv`] never
/// scan the full point list.
#[derive(Debug, Clone)]
pub struct Sweep {
    points: Vec<SweepPoint>,
    batches: Vec<usize>,
    labels: Vec<String>,
    /// The mapping of each row, aligned with `labels`.
    mappings: Vec<Parallelism>,
    /// Label → row index (first occurrence wins for duplicate labels).
    label_index: HashMap<String, usize>,
}

impl Sweep {
    /// Evaluate every `(mapping, batch)` pair against one memoization
    /// cache. Each mapping is evaluated through [`SearchEngine::evaluate_one`]
    /// semantics (microbatch tuning included); results are ordered
    /// label-major, batch-minor. Cells carry [`AnalyticalBackend`]
    /// provenance.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors; a mapping invalid for the engine's
    /// system/model is an error (sweeps are explicit, unlike enumeration).
    pub fn run(
        engine: &SearchEngine<'_>,
        mappings: &[(String, Parallelism)],
        batches: &[usize],
        num_batches: u64,
    ) -> Result<Sweep> {
        let trainings = trainings_for(batches, num_batches)?;
        let cells = engine.evaluate_grid(mappings, &trainings)?;
        let estimates: Vec<Estimate> = cells.into_iter().map(|c| c.estimate).collect();
        Ok(Sweep::assemble(
            mappings,
            batches,
            estimates,
            AnalyticalBackend.name(),
        ))
    }

    /// Evaluate every `(mapping, batch)` pair through an arbitrary
    /// [`CostBackend`], recording the backend's name as each cell's
    /// provenance.
    ///
    /// Unlike [`Sweep::run`], mappings are priced exactly as given — the
    /// backend sees each mapping's own microbatch policy, with no
    /// microbatch tuning pass (a backend is a pricing function, not a
    /// search).
    ///
    /// # Errors
    ///
    /// Propagates backend errors — including [`SimBackend`]'s memory
    /// feasibility gate, so an infeasible cell fails the sweep rather than
    /// silently reporting a time no real run could achieve.
    ///
    /// [`SimBackend`]: amped_sim::SimBackend
    pub fn run_backend(
        engine: &SearchEngine<'_>,
        backend: &dyn CostBackend,
        mappings: &[(String, Parallelism)],
        batches: &[usize],
        num_batches: u64,
    ) -> Result<Sweep> {
        let trainings = trainings_for(batches, num_batches)?;
        let cols = trainings.len();
        if mappings.is_empty() || cols == 0 {
            return Ok(Sweep::assemble(mappings, batches, Vec::new(), backend.name()));
        }
        // One batched backend call per training column (each column shares
        // a scenario and differs only in the candidate mapping). Backends
        // with a real batch path hoist the per-column invariants once; the
        // default implementation loops `evaluate`, so cells stay
        // bit-identical either way.
        let plist: Vec<Parallelism> = mappings.iter().map(|(_, p)| *p).collect();
        let scenario = engine.scenario_for(plist[0]);
        let mut columns: Vec<Vec<Option<Result<Estimate>>>> = trainings
            .iter()
            .map(|training| {
                backend
                    .evaluate_many(&scenario, &plist, training)
                    .into_iter()
                    .map(Some)
                    .collect()
            })
            .collect();
        // Reassemble label-major, batch-minor; the first error in that
        // (row, col) order wins, matching the per-cell path.
        let mut estimates = Vec::with_capacity(mappings.len() * cols);
        for row in 0..mappings.len() {
            for column in columns.iter_mut() {
                estimates.push(column[row].take().expect("each cell is taken once")?);
            }
        }
        Ok(Sweep::assemble(mappings, batches, estimates, backend.name()))
    }

    /// Build the grid from label-major, batch-minor estimates.
    fn assemble(
        mappings: &[(String, Parallelism)],
        batches: &[usize],
        estimates: Vec<Estimate>,
        backend: &'static str,
    ) -> Sweep {
        let mut points = Vec::with_capacity(estimates.len());
        for (i, estimate) in estimates.into_iter().enumerate() {
            let (row, col) = (i / batches.len().max(1), i % batches.len().max(1));
            points.push(SweepPoint {
                label: mappings[row].0.clone(),
                global_batch: batches[col],
                estimate,
                backend,
            });
        }
        let mut label_index = HashMap::with_capacity(mappings.len());
        for (row, (label, _)) in mappings.iter().enumerate() {
            label_index.entry(label.clone()).or_insert(row);
        }
        Sweep {
            points,
            batches: batches.to_vec(),
            labels: mappings.iter().map(|(l, _)| l.clone()).collect(),
            mappings: mappings.iter().map(|(_, p)| *p).collect(),
            label_index,
        }
    }

    /// All evaluated points (label-major, batch-minor).
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The batch sizes of the grid's columns.
    pub fn batches(&self) -> &[usize] {
        &self.batches
    }

    /// The typed cell at `(row, col)` of the label × batch grid.
    fn cell_at(&self, row: usize, col: usize) -> SweepCell<'_> {
        let point = &self.points[row * self.batches.len() + col];
        SweepCell {
            label: &self.labels[row],
            parallelism: &self.mappings[row],
            global_batch: point.global_batch,
            backend: point.backend,
            estimate: &point.estimate,
        }
    }

    /// The rows of the grid — one per mapping, in insertion order. This is
    /// the structured view consumers should prefer over parsing labels out
    /// of [`Sweep::to_csv`] or [`Sweep::points`].
    pub fn rows(&self) -> impl Iterator<Item = SweepRow<'_>> {
        (0..self.labels.len()).map(move |row| SweepRow { sweep: self, row })
    }

    /// Every cell of the grid, label-major, batch-minor.
    pub fn cells(&self) -> impl Iterator<Item = SweepCell<'_>> {
        self.rows().flat_map(|r| r.cells())
    }

    /// The row for one mapping label (`None` for an unknown label; the
    /// first row wins for duplicate labels).
    pub fn row(&self, label: &str) -> Option<SweepRow<'_>> {
        self.label_index
            .get(label)
            .map(|&row| SweepRow { sweep: self, row })
    }

    /// The series for one mapping label: `(batch, total days)` pairs in
    /// batch order (empty for an unknown label).
    pub fn days_series(&self, label: &str) -> Vec<(f64, f64)> {
        self.row(label).map(|r| r.days_points()).unwrap_or_default()
    }

    /// Labels in insertion order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The fastest mapping at each batch size: `(batch, label)`.
    pub fn winners(&self) -> Vec<(usize, &str)> {
        (0..self.batches.len())
            .filter_map(|col| {
                (0..self.labels.len())
                    .map(|row| self.cell_at(row, col))
                    .min_by(|x, y| {
                        x.estimate
                            .total_time
                            .get()
                            .partial_cmp(&y.estimate.total_time.get())
                            .expect("finite")
                    })
                    .map(|c| (c.global_batch, c.label))
            })
            .collect()
    }

    /// Render as CSV: one row per batch, one column per label (days).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("batch");
        for l in &self.labels {
            out.push(',');
            out.push_str(l);
        }
        for (col, &b) in self.batches.iter().enumerate() {
            out.push('\n');
            out.push_str(&b.to_string());
            for row in 0..self.labels.len() {
                out.push(',');
                out.push_str(&format!("{:.3}", self.cell_at(row, col).estimate.days()));
            }
        }
        out
    }
}

/// The batch ladder as training configurations.
fn trainings_for(batches: &[usize], num_batches: u64) -> Result<Vec<TrainingConfig>> {
    let mut trainings = Vec::with_capacity(batches.len());
    for &batch in batches {
        trainings.push(TrainingConfig::new(batch, num_batches)?);
    }
    Ok(trainings)
}

/// An explicitly requested mapping the memory filter rejected is an error.
fn filtered_out(scored: crate::Scored) -> Result<Candidate> {
    scored.map(|candidate| *candidate).map_err(|failure| {
        amped_core::Error::incompatible(format!(
            "mapping was filtered out (exceeds device memory under every microbatch size; \
             first failing inequality: {failure})",
        ))
    })
}

/// Re-export point: evaluate a single explicit mapping through the engine
/// (used by [`Sweep::run`] and callers that need one-off evaluations with
/// the engine's configuration).
impl<'a> SearchEngine<'a> {
    /// Evaluate one explicit mapping (with microbatch tuning if enabled).
    ///
    /// # Errors
    ///
    /// Returns an error if the mapping does not fit the engine's
    /// system/model or any component fails validation.
    pub fn evaluate_one(
        &self,
        mapping: &Parallelism,
        training: &TrainingConfig,
    ) -> Result<Candidate> {
        let mut cache = amped_core::EstimateCache::new();
        let evaluator = self.batch_evaluator();
        let kernel = evaluator.prepare(&mut cache, training)?;
        let memory = self.memory_model(mapping);
        filtered_out(self.evaluate_mapping(&kernel, &mut cache, &memory, mapping)?)
    }

    /// Evaluate a mappings × trainings grid against one memoization cache,
    /// returning candidates mapping-major. Pruning does not apply here — a
    /// sweep reports *every* cell.
    pub(crate) fn evaluate_grid(
        &self,
        mappings: &[(String, Parallelism)],
        trainings: &[TrainingConfig],
    ) -> Result<Vec<Candidate>> {
        if mappings.is_empty() {
            return Ok(Vec::new());
        }
        let evaluator = self.batch_evaluator();
        let memory = self.memory_model(&mappings[0].1);
        self.with_cache(|cache| {
            let kernels = trainings
                .iter()
                .map(|t| evaluator.prepare(cache, t))
                .collect::<Result<Vec<_>>>()?;
            let mut out = Vec::with_capacity(mappings.len() * trainings.len());
            for (_, p) in mappings {
                for kernel in &kernels {
                    out.push(filtered_out(self.evaluate_mapping(kernel, cache, &memory, p)?)?);
                }
            }
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_core::{AcceleratorSpec, EfficiencyModel, Link, SystemSpec, TransformerModel};

    fn fixture() -> (TransformerModel, AcceleratorSpec, SystemSpec) {
        let model = TransformerModel::builder("sweep-m")
            .layers(16)
            .hidden_size(1024)
            .heads(16)
            .seq_len(256)
            .vocab_size(8000)
            .build()
            .unwrap();
        let accel = AcceleratorSpec::builder("sweep-a")
            .frequency_hz(1e9)
            .cores(32)
            .mac_units(4, 128, 8)
            .nonlin_units(32, 8, 32)
            .memory(32e9, 1e12)
            .build()
            .unwrap();
        let system =
            SystemSpec::new(4, 4, Link::new(1e-6, 2.4e12), Link::new(1e-5, 1e11), 4).unwrap();
        (model, accel, system)
    }

    #[test]
    fn sweep_covers_the_grid() {
        let (model, accel, system) = fixture();
        let engine = SearchEngine::new(&model, &accel, &system)
            .with_efficiency(EfficiencyModel::Constant(0.5));
        let mappings = vec![
            (
                "dp".to_string(),
                Parallelism::builder().tp(4, 1).dp(1, 4).build().unwrap(),
            ),
            (
                "pp".to_string(),
                Parallelism::builder().tp(4, 1).pp(1, 4).build().unwrap(),
            ),
        ];
        let batches = [64usize, 128, 256];
        let sweep = Sweep::run(&engine, &mappings, &batches, 10).unwrap();
        assert_eq!(sweep.points().len(), 6);
        assert_eq!(sweep.days_series("dp").len(), 3);
        assert_eq!(sweep.days_series("unknown").len(), 0);
        assert_eq!(sweep.winners().len(), 3);
        let csv = sweep.to_csv();
        assert!(csv.starts_with("batch,dp,pp"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn winners_are_the_fastest() {
        let (model, accel, system) = fixture();
        let engine = SearchEngine::new(&model, &accel, &system)
            .with_efficiency(EfficiencyModel::Constant(0.5));
        let mappings = vec![
            (
                "dp".to_string(),
                Parallelism::builder().tp(4, 1).dp(1, 4).build().unwrap(),
            ),
            (
                "tp-inter".to_string(),
                Parallelism::builder().tp(4, 4).build().unwrap(),
            ),
        ];
        let sweep = Sweep::run(&engine, &mappings, &[256], 1).unwrap();
        // TP across slow links loses; the winner at every batch is dp.
        for (_, w) in sweep.winners() {
            assert_eq!(w, "dp");
        }
    }

    #[test]
    fn evaluate_one_rejects_misfit_mappings() {
        let (model, accel, system) = fixture();
        let engine = SearchEngine::new(&model, &accel, &system);
        let wrong = Parallelism::builder().tp(2, 1).build().unwrap(); // 2 != 4
        assert!(engine
            .evaluate_one(&wrong, &TrainingConfig::new(64, 1).unwrap())
            .is_err());
    }

    #[test]
    fn typed_rows_and_cells_expose_the_grid_without_label_parsing() {
        let (model, accel, system) = fixture();
        let engine = SearchEngine::new(&model, &accel, &system)
            .with_efficiency(EfficiencyModel::Constant(0.5));
        let mappings = vec![
            (
                "dp".to_string(),
                Parallelism::builder().tp(4, 1).dp(1, 4).build().unwrap(),
            ),
            (
                "pp".to_string(),
                Parallelism::builder().tp(4, 1).pp(1, 4).build().unwrap(),
            ),
        ];
        let batches = [64usize, 128];
        let sweep = Sweep::run(&engine, &mappings, &batches, 10).unwrap();

        let rows: Vec<_> = sweep.rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label(), "dp");
        assert_eq!(rows[0].parallelism().dp(), 4);
        assert_eq!(rows[1].label(), "pp");
        assert_eq!(rows[1].parallelism().pp(), 4);
        for row in &rows {
            let cells: Vec<_> = row.cells().collect();
            assert_eq!(cells.len(), batches.len());
            for (cell, &batch) in cells.iter().zip(&batches) {
                assert_eq!(cell.global_batch, batch);
                assert_eq!(cell.backend, "analytical");
                assert!(cell.estimate.total_time.get() > 0.0);
            }
        }
        assert_eq!(sweep.cells().count(), 4);
        // The typed row reproduces the label-keyed series exactly.
        assert_eq!(sweep.row("dp").unwrap().days_points(), sweep.days_series("dp"));
        assert!(sweep.row("unknown").is_none());
    }

    #[test]
    fn backend_sweeps_record_provenance_and_match_the_trait() {
        use amped_core::CostBackend;
        let (model, accel, system) = fixture();
        let engine = SearchEngine::new(&model, &accel, &system)
            .with_efficiency(EfficiencyModel::Constant(0.5));
        let mappings = vec![
            (
                "dp".to_string(),
                Parallelism::builder().tp(4, 1).dp(1, 4).build().unwrap(),
            ),
            (
                "pp".to_string(),
                Parallelism::builder().tp(4, 1).pp(1, 4).build().unwrap(),
            ),
        ];
        let batches = [64usize, 128];
        let analytical = amped_core::AnalyticalBackend;
        let sweep = Sweep::run_backend(&engine, &analytical, &mappings, &batches, 10).unwrap();
        for cell in sweep.cells() {
            assert_eq!(cell.backend, "analytical");
            let scenario = engine.scenario_for(*cell.parallelism);
            let training = TrainingConfig::new(cell.global_batch, 10).unwrap();
            let direct = analytical.evaluate(&scenario, &training).unwrap();
            assert_eq!(
                cell.estimate.total_time.get().to_bits(),
                direct.total_time.get().to_bits()
            );
        }
        let sim = amped_sim::SimBackend::new();
        let sim_sweep = Sweep::run_backend(&engine, &sim, &mappings, &batches, 10).unwrap();
        assert!(sim_sweep.cells().all(|c| c.backend == "sim"));
        assert_eq!(sim_sweep.points().len(), 4);
    }
}
