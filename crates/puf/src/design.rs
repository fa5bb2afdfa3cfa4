//! Reconfigurable TLN PUF designs (paper §2).
//!
//! A challenge bitvector configures which branch stubs of a transmission-
//! line network are connected; the response is extracted from the voltage
//! trajectory observed at `OUT_V` within an observation window. Fabrication
//! mismatch (via the GmC-TLN language) makes each fabricated instance
//! respond differently — the property a PUF exploits.

use ark_core::func::{GraphBuilder, ParametricGraph};
use ark_core::{CompiledSystem, EvalScratch, FuncError, Graph, Language};
use ark_ode::{OdeWorkspace, Rk4, SolveError, Solver, Strided, Trajectory};
use ark_paradigms::tln::{pulse_fn, MismatchKind, TlineConfig};
use std::fmt;

/// A challenge: one bit per switchable branch stub.
pub type Challenge = Vec<bool>;

/// A response bitvector.
pub type Response = Vec<bool>;

/// Structural parameters of a branched-TLN PUF.
#[derive(Debug, Clone, PartialEq)]
pub struct PufDesign {
    /// Trunk segments between branch sites.
    pub spacing: usize,
    /// Number of switchable branch sites (= challenge bits).
    pub sites: usize,
    /// Stub length in segments at each site.
    pub stub_len: usize,
    /// Electrical configuration (mismatch kind selects the PUF's entropy
    /// source, cf. §2.4: `Gm` mismatch is the recommended choice).
    pub cfg: TlineConfig,
    /// Observation window start (seconds).
    pub window_start: f64,
    /// Observation window end (seconds).
    pub window_end: f64,
    /// Number of response bits sampled from the window.
    pub response_bits: usize,
}

impl Default for PufDesign {
    fn default() -> Self {
        PufDesign {
            spacing: 2,
            sites: 4,
            stub_len: 3,
            cfg: TlineConfig {
                mismatch: MismatchKind::Gm,
                ..TlineConfig::default()
            },
            window_start: 1e-8,
            window_end: 8e-8,
            response_bits: 32,
        }
    }
}

/// An error from PUF construction or evaluation.
#[derive(Debug)]
pub enum PufError {
    /// Graph construction failed.
    Build(FuncError),
    /// Compilation failed.
    Compile(ark_core::CompileError),
    /// Simulation failed.
    Sim(SolveError),
    /// Challenge length does not match the number of sites.
    BadChallenge {
        /// Expected number of bits.
        expected: usize,
        /// Provided number of bits.
        got: usize,
    },
}

impl fmt::Display for PufError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PufError::Build(e) => write!(f, "{e}"),
            PufError::Compile(e) => write!(f, "{e}"),
            PufError::Sim(e) => write!(f, "{e}"),
            PufError::BadChallenge { expected, got } => {
                write!(f, "challenge has {got} bits, design expects {expected}")
            }
        }
    }
}

impl std::error::Error for PufError {}

impl From<FuncError> for PufError {
    fn from(e: FuncError) -> Self {
        PufError::Build(e)
    }
}

impl From<ark_core::CompileError> for PufError {
    fn from(e: ark_core::CompileError) -> Self {
        PufError::Compile(e)
    }
}

impl From<SolveError> for PufError {
    fn from(e: SolveError) -> Self {
        PufError::Sim(e)
    }
}

impl PufDesign {
    /// Total trunk segments (sites × spacing plus a tail to `OUT_V`).
    fn trunk_segments(&self) -> usize {
        self.sites * self.spacing + self.spacing
    }

    /// Build the dynamical graph for one fabricated `instance` (mismatch
    /// seed) under a `challenge` switch configuration.
    ///
    /// # Errors
    ///
    /// [`PufError::BadChallenge`] on a challenge-length mismatch or any
    /// construction failure.
    pub fn build(
        &self,
        lang: &Language,
        challenge: &Challenge,
        instance: u64,
    ) -> Result<Graph, PufError> {
        let mut b = GraphBuilder::new(lang, instance);
        self.build_into(&mut b, challenge)?;
        Ok(b.finish()?)
    }

    /// [`PufDesign::build`] as a *parametric* graph: fabrication mismatch
    /// (the PUF's entropy source) becomes parameter slots, so one
    /// [`CompiledSystem::compile_parametric`] per challenge serves every
    /// fabricated instance — the compile-once fast path behind
    /// [`crate::metrics::evaluate_with`]. Instance `i`'s parameter vector is
    /// [`CompiledSystem::sample_params`]`(i)`, bit-identical to building
    /// with seed `i`.
    ///
    /// # Errors
    ///
    /// As [`PufDesign::build`].
    pub fn build_parametric(
        &self,
        lang: &Language,
        challenge: &Challenge,
    ) -> Result<ParametricGraph, PufError> {
        let mut b = GraphBuilder::new_parametric(lang);
        self.build_into(&mut b, challenge)?;
        Ok(b.finish_parametric()?)
    }

    /// Shared statement body of the seeded and parametric builds (identical
    /// statement order keeps parameter replay exact).
    fn build_into(&self, b: &mut GraphBuilder<'_>, challenge: &Challenge) -> Result<(), PufError> {
        if challenge.len() != self.sites {
            return Err(PufError::BadChallenge {
                expected: self.sites,
                got: challenge.len(),
            });
        }
        let cfg = &self.cfg;
        let (vt, it, et) = match cfg.mismatch {
            MismatchKind::None => ("V", "I", "E"),
            MismatchKind::Cint => ("Vm", "Im", "E"),
            MismatchKind::Gm => ("V", "I", "Em"),
            MismatchKind::Both => ("Vm", "Im", "Em"),
        };
        let trunk = self.trunk_segments();
        b.node("InpI_0", "InpI")?;
        b.set_attr("InpI_0", "fn", pulse_fn(cfg.pulse_width))?;
        b.set_attr("InpI_0", "g", cfg.source_g)?;
        b.node("IN_V", vt)?;
        b.set_attr("IN_V", "c", cfg.lc)?;
        b.set_attr("IN_V", "g", 0.0)?;
        b.edge("eInp", et, "InpI_0", "IN_V")?;
        b.edge("sInV", et, "IN_V", "IN_V")?;
        // Trunk.
        let mut prev = "IN_V".to_string();
        for k in 0..trunk {
            let iname = format!("I_{k}");
            let vname = format!("V_{k}");
            b.node(&iname, it)?;
            b.set_attr(&iname, "l", cfg.lc)?;
            b.set_attr(&iname, "r", 0.0)?;
            b.edge(&format!("sI_{k}"), et, &iname, &iname)?;
            b.node(&vname, vt)?;
            b.set_attr(&vname, "c", cfg.lc)?;
            b.set_attr(&vname, "g", if k + 1 == trunk { cfg.load_g } else { 0.0 })?;
            b.edge(&format!("sV_{k}"), et, &vname, &vname)?;
            b.edge(&format!("eA_{k}"), et, &prev, &iname)?;
            b.edge(&format!("eB_{k}"), et, &iname, &vname)?;
            prev = vname;
        }
        // Branch stubs at every `spacing`-th trunk V node, gated by the
        // challenge bits (cf. Figure 8's `set-switch ... when br`).
        for (site, &bit) in challenge.iter().enumerate() {
            let anchor = format!("V_{}", site * self.spacing);
            let mut stub_prev = anchor.clone();
            for k in 0..self.stub_len {
                let iname = format!("bI_{site}_{k}");
                let vname = format!("bV_{site}_{k}");
                b.node(&iname, it)?;
                b.set_attr(&iname, "l", cfg.lc)?;
                b.set_attr(&iname, "r", 0.0)?;
                b.edge(&format!("bsI_{site}_{k}"), et, &iname, &iname)?;
                b.node(&vname, vt)?;
                b.set_attr(&vname, "c", cfg.lc)?;
                b.set_attr(&vname, "g", 0.0)?;
                b.edge(&format!("bsV_{site}_{k}"), et, &vname, &vname)?;
                let gate = format!("bA_{site}_{k}");
                b.edge(&gate, et, &stub_prev, &iname)?;
                b.edge(&format!("bB_{site}_{k}"), et, &iname, &vname)?;
                if k == 0 {
                    // Only the first stub edge is the challenge switch.
                    b.set_switch(&gate, bit)?;
                }
                stub_prev = vname;
            }
        }
        Ok(())
    }

    /// Name of the observation node.
    pub fn out_node(&self) -> String {
        format!("V_{}", self.trunk_segments() - 1)
    }

    /// Simulate one (instance, challenge) pair and return the `OUT_V`
    /// trajectory.
    ///
    /// # Errors
    ///
    /// Propagates construction, compilation, and simulation failures.
    pub fn observe(
        &self,
        lang: &Language,
        challenge: &Challenge,
        instance: u64,
    ) -> Result<(CompiledSystem, Trajectory), PufError> {
        let graph = self.build(lang, challenge, instance)?;
        let sys = CompiledSystem::compile(lang, &graph)?;
        let tr = Rk4 { dt: 5e-11 }.integrate(
            &sys.bind(),
            0.0,
            &sys.initial_state(),
            self.window_end * 1.05,
            4,
        )?;
        Ok((sys, tr))
    }

    /// Integrate one fabricated instance of an already-compiled
    /// (per-challenge) system — the compile-once sibling of
    /// [`PufDesign::observe`]. `params` is the instance's parameter vector
    /// (empty for nominal systems); scratch and workspace are reused across
    /// instances by the ensemble engine.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn observe_compiled(
        &self,
        sys: &CompiledSystem,
        params: &[f64],
        scratch: &mut EvalScratch,
        ws: &mut OdeWorkspace,
    ) -> Result<Trajectory, PufError> {
        let y0 = sys.initial_state_for(params);
        let bound = sys.bind_ref(params, scratch);
        let mut rec = Strided::every(4);
        Rk4 { dt: 5e-11 }.solve(&bound, 0.0, &y0, self.window_end * 1.05, &mut rec, ws)?;
        Ok(rec.into_trajectory())
    }

    /// Extract a response from an already-compiled (per-challenge) system —
    /// the compile-once sibling of [`PufDesign::respond`]. Bit semantics are
    /// identical; only the compilation strategy differs.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    #[allow(clippy::too_many_arguments)]
    pub fn respond_compiled(
        &self,
        sys: &CompiledSystem,
        params: &[f64],
        reference: &Trajectory,
        ref_out_idx: usize,
        noise_sigma: f64,
        noise_seed: u64,
        scratch: &mut EvalScratch,
        ws: &mut OdeWorkspace,
    ) -> Result<Response, PufError> {
        let tr = self.observe_compiled(sys, params, scratch, ws)?;
        let out = sys
            .state_index(&self.out_node())
            .expect("OUT_V is stateful");
        let mut noise = ark_core::MismatchSampler::new(noise_seed);
        let mut bits = Vec::with_capacity(self.response_bits);
        for i in 0..self.response_bits {
            let t = self.window_start
                + (self.window_end - self.window_start) * (i as f64)
                    / (self.response_bits.max(2) - 1) as f64;
            let v = tr.value_at(t, out) + noise_sigma * noise.standard_normal();
            let r = reference.value_at(t, ref_out_idx);
            bits.push(v > r);
        }
        Ok(bits)
    }

    /// Extract the response: sample `OUT_V` at `response_bits` points in the
    /// observation window and compare against the nominal (mismatch-free)
    /// reference trajectory for the same challenge. Bit `i` is 1 when the
    /// fabricated instance reads above the reference.
    ///
    /// `noise_sigma`/`noise_seed` model measurement noise at readout time
    /// (used for reliability studies).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    #[allow(clippy::too_many_arguments)]
    pub fn respond(
        &self,
        lang: &Language,
        reference: &Trajectory,
        ref_out_idx: usize,
        challenge: &Challenge,
        instance: u64,
        noise_sigma: f64,
        noise_seed: u64,
    ) -> Result<Response, PufError> {
        let (sys, tr) = self.observe(lang, challenge, instance)?;
        let out = sys
            .state_index(&self.out_node())
            .expect("OUT_V is stateful");
        let mut noise = ark_core::MismatchSampler::new(noise_seed);
        let mut bits = Vec::with_capacity(self.response_bits);
        for i in 0..self.response_bits {
            let t = self.window_start
                + (self.window_end - self.window_start) * (i as f64)
                    / (self.response_bits.max(2) - 1) as f64;
            let v = tr.value_at(t, out) + noise_sigma * noise.standard_normal();
            let r = reference.value_at(t, ref_out_idx);
            bits.push(v > r);
        }
        Ok(bits)
    }

    /// Simulate the nominal (mismatch-free) reference for a challenge.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn reference(
        &self,
        lang: &Language,
        challenge: &Challenge,
    ) -> Result<(Trajectory, usize), PufError> {
        let nominal = PufDesign {
            cfg: TlineConfig {
                mismatch: MismatchKind::None,
                ..self.cfg
            },
            ..self.clone()
        };
        let (sys, tr) = nominal.observe(lang, challenge, 0)?;
        let idx = sys
            .state_index(&nominal.out_node())
            .expect("OUT_V is stateful");
        Ok((tr, idx))
    }
}

/// Hamming distance between two responses.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn hamming(a: &Response, b: &Response) -> usize {
    assert_eq!(a.len(), b.len(), "response length mismatch");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Integer challenge → bitvector of the given width.
pub fn challenge_bits(value: u64, width: usize) -> Challenge {
    (0..width).map(|i| value >> i & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_core::validate::{validate, ExternRegistry};
    use ark_paradigms::tln::{gmc_tln_language, tln_language};

    fn langs() -> (Language, Language) {
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        (base, gmc)
    }

    fn small_design() -> PufDesign {
        PufDesign {
            spacing: 1,
            sites: 2,
            stub_len: 2,
            window_start: 0.5e-8,
            window_end: 3e-8,
            response_bits: 16,
            ..PufDesign::default()
        }
    }

    #[test]
    fn puf_graph_is_valid_for_all_challenges() {
        let (_, gmc) = langs();
        let d = small_design();
        for ch in 0..4u64 {
            let g = d.build(&gmc, &challenge_bits(ch, 2), 1).unwrap();
            let report = validate(&gmc, &g, &ExternRegistry::new()).unwrap();
            assert!(report.is_valid(), "challenge {ch}: {report}");
        }
    }

    #[test]
    fn challenge_length_checked() {
        let (_, gmc) = langs();
        let d = small_design();
        assert!(matches!(
            d.build(&gmc, &vec![true], 0),
            Err(PufError::BadChallenge {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn different_challenges_change_response() {
        let (_, gmc) = langs();
        let d = small_design();
        let c0 = challenge_bits(0, 2);
        let c3 = challenge_bits(3, 2);
        let (ref0, i0) = d.reference(&gmc, &c0).unwrap();
        let (ref3, i3) = d.reference(&gmc, &c3).unwrap();
        let r0 = d.respond(&gmc, &ref0, i0, &c0, 5, 0.0, 0).unwrap();
        let r3 = d.respond(&gmc, &ref3, i3, &c3, 5, 0.0, 0).unwrap();
        // Same chip, different challenges: responses should differ somewhere
        // (the stub changes the reflection pattern).
        assert_ne!(r0, r3);
    }

    #[test]
    fn different_instances_differ_same_instance_repeats() {
        let (_, gmc) = langs();
        let d = small_design();
        let c = challenge_bits(1, 2);
        let (reference, idx) = d.reference(&gmc, &c).unwrap();
        let r5 = d.respond(&gmc, &reference, idx, &c, 5, 0.0, 0).unwrap();
        let r5b = d.respond(&gmc, &reference, idx, &c, 5, 0.0, 0).unwrap();
        let r6 = d.respond(&gmc, &reference, idx, &c, 6, 0.0, 0).unwrap();
        assert_eq!(r5, r5b, "same instance must be reproducible without noise");
        assert!(hamming(&r5, &r6) > 0, "different chips must differ");
    }

    #[test]
    fn hamming_and_challenge_bits() {
        assert_eq!(hamming(&vec![true, false], &vec![true, true]), 1);
        assert_eq!(challenge_bits(0b101, 3), vec![true, false, true]);
    }
}
