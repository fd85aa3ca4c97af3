//! The four methods compared in the paper's performance section
//! (Figures 10-12): uninstrumented baseline, legacy RMA-Analyzer,
//! MUST-RMA, and the contribution — plus the fragmentation-only
//! ablation.

use rma_monitor::{Algorithm, AnalyzerCfg, OnRace, RmaAnalyzer};
use rma_must::MustRma;
use rma_sim::{Monitor, NullMonitor, Tee};
use std::sync::Arc;

/// A detection method attached to an application run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// No tool attached.
    Baseline,
    /// Legacy RMA-Analyzer.
    Legacy,
    /// MUST-RMA-like baseline.
    Must,
    /// The paper's contribution (fragmentation + merging).
    Contribution,
    /// Ablation: fragmentation without merging.
    FragmentOnly,
    /// The Section 6(3) stride-merging extension (prototype).
    StrideExtension,
}

impl Method {
    /// Paper legend names.
    pub fn name(self) -> &'static str {
        match self {
            Method::Baseline => "Baseline",
            Method::Legacy => "RMA-Analyzer",
            Method::Must => "MUST-RMA",
            Method::Contribution => "Our Contribution",
            Method::FragmentOnly => "Fragmentation-only",
            Method::StrideExtension => "Stride-merging extension",
        }
    }

    /// The four methods of Figures 10-12, in legend order.
    pub const PAPER_SET: [Method; 4] =
        [Method::Baseline, Method::Legacy, Method::Must, Method::Contribution];
}

/// A constructed monitor plus typed handles for post-run statistics.
pub struct MethodRun {
    /// The monitor to attach to [`rma_sim::World::run`].
    pub monitor: Arc<dyn Monitor>,
    /// Present for the RMA-Analyzer-family methods.
    pub analyzer: Option<Arc<RmaAnalyzer>>,
    /// Present for the MUST method.
    pub must: Option<Arc<MustRma>>,
}

impl MethodRun {
    /// Builds the monitor for `method` in a world of `nranks` ranks.
    /// Detected races are collected (not aborted) so benchmark runs
    /// complete even with injected races.
    pub fn new(method: Method, nranks: u32) -> Self {
        Self::with_policy(method, nranks, false)
    }

    /// Like [`MethodRun::new`] but aborting on the first race, as the
    /// real tools do.
    pub fn aborting(method: Method, nranks: u32) -> Self {
        Self::with_policy(method, nranks, true)
    }

    fn with_policy(method: Method, nranks: u32, abort: bool) -> Self {
        match method {
            Method::Baseline => MethodRun {
                monitor: Arc::new(NullMonitor),
                analyzer: None,
                must: None,
            },
            Method::Legacy
            | Method::Contribution
            | Method::FragmentOnly
            | Method::StrideExtension => {
                let algorithm = match method {
                    Method::Legacy => Algorithm::Legacy,
                    Method::Contribution => Algorithm::FragMerge,
                    Method::FragmentOnly => Algorithm::FragmentOnly,
                    _ => Algorithm::StrideExtension,
                };
                let analyzer = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
                    algorithm,
                    on_race: if abort { OnRace::Abort } else { OnRace::Collect },
                    ..AnalyzerCfg::default()
                }));
                MethodRun {
                    monitor: analyzer.clone(),
                    analyzer: Some(analyzer),
                    must: None,
                }
            }
            Method::Must => {
                let must = Arc::new(MustRma::for_world(
                    nranks,
                    if abort { rma_must::OnRace::Abort } else { rma_must::OnRace::Collect },
                ));
                MethodRun { monitor: must.clone(), analyzer: None, must: Some(must) }
            }
        }
    }

    /// Attaches an extra observer (typically a trace recorder) in front
    /// of the method's own monitor: the observer sees every hook first,
    /// then the detector runs. The typed handles keep pointing at the
    /// detector, so post-run statistics are unaffected by the tee.
    pub fn observed(mut self, observer: Arc<dyn Monitor>) -> Self {
        self.monitor = Arc::new(Tee::pair(observer, self.monitor));
        self
    }

    /// Races found by whichever tool ran (empty for the baseline).
    pub fn races(&self) -> Vec<rma_core::RaceReport> {
        if let Some(a) = &self.analyzer {
            a.races()
        } else if let Some(m) = &self.must {
            m.races()
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_match_method() {
        let r = MethodRun::new(Method::Baseline, 4);
        assert!(r.analyzer.is_none() && r.must.is_none());
        let r = MethodRun::new(Method::Contribution, 4);
        assert!(r.analyzer.is_some() && r.must.is_none());
        let r = MethodRun::new(Method::Must, 4);
        assert!(r.analyzer.is_none() && r.must.is_some());
        assert!(r.races().is_empty());
    }
}
