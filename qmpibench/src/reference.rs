//! Independent reference for the TFIM checks: a plain complex-vector
//! Trotter evolution of the whole ring, written without `qsim`.
//!
//! Global spin `s` is bit `s` of the basis index; rank `r` owns spins
//! `r*local .. (r+1)*local`. One step applies `exp(-i J dt z_a z_b)` on every
//! ring bond (what `CNOT · Rz(2 J dt) · CNOT` does, up to global phase) and
//! then `Rx(-2 Γ dt)` on every spin, the order `qalgo::tfim::trotter_step`
//! uses.

/// The annealing schedule of one program: `steps` first-order Trotter steps
/// of length `dt`, with `J = k/steps` and `Γ = 1 - J` at step `k`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub steps: usize,
    pub dt: f64,
}

impl Schedule {
    /// `(J, Γ)` at step `k`.
    pub fn couplings(&self, k: usize) -> (f64, f64) {
        let j = k as f64 / self.steps as f64;
        (j, 1.0 - j)
    }
}

/// Per-rank readings in the order the benchmark takes them: `⟨Z_i⟩` and
/// `⟨X_i⟩` for each local spin, then `⟨Z_i Z_{i+1}⟩` for each in-rank bond.
pub fn readings(ranks: usize, local: usize, schedule: Schedule) -> Vec<Vec<f64>> {
    let n = ranks * local;
    let dim = 1usize << n;
    let amp0 = (1.0 / dim as f64).sqrt();
    let mut re = vec![amp0; dim];
    let mut im = vec![0.0; dim];
    // Σ_bonds z_a z_b per basis state; the ring has n bonds (n >= 3).
    let zz_sum: Vec<f64> = (0..dim)
        .map(|b| {
            (0..n)
                .map(|s| {
                    let a = (b >> s) & 1;
                    let c = (b >> ((s + 1) % n)) & 1;
                    if a == c {
                        1.0
                    } else {
                        -1.0
                    }
                })
                .sum()
        })
        .collect();
    for k in 0..schedule.steps {
        let (j, g) = schedule.couplings(k);
        for b in 0..dim {
            let (s, c) = (-j * schedule.dt * zz_sum[b]).sin_cos();
            let (r, i) = (re[b], im[b]);
            re[b] = r * c - i * s;
            im[b] = r * s + i * c;
        }
        // Rx(θ) = [[cos θ/2, -i sin θ/2], [-i sin θ/2, cos θ/2]], θ = -2 Γ dt.
        let (sn, cs) = (-g * schedule.dt).sin_cos();
        for s in 0..n {
            let bit = 1usize << s;
            for b in 0..dim {
                if b & bit != 0 {
                    continue;
                }
                let (r0, i0, r1, i1) = (re[b], im[b], re[b | bit], im[b | bit]);
                re[b] = cs * r0 + sn * i1;
                im[b] = cs * i0 - sn * r1;
                re[b | bit] = cs * r1 + sn * i0;
                im[b | bit] = cs * i1 - sn * r0;
            }
        }
    }
    let z = |b: usize, s: usize| if (b >> s) & 1 == 0 { 1.0 } else { -1.0 };
    (0..ranks)
        .map(|r| {
            let spins: Vec<usize> = (r * local..(r + 1) * local).collect();
            let mut out = Vec::new();
            for &s in &spins {
                let ez: f64 = (0..dim)
                    .map(|b| (re[b] * re[b] + im[b] * im[b]) * z(b, s))
                    .sum();
                let ex: f64 = (0..dim)
                    .map(|b| {
                        let f = b ^ (1 << s);
                        re[b] * re[f] + im[b] * im[f]
                    })
                    .sum();
                out.push(ez);
                out.push(ex);
            }
            for w in spins.windows(2) {
                let ezz: f64 = (0..dim)
                    .map(|b| (re[b] * re[b] + im[b] * im[b]) * z(b, w[0]) * z(b, w[1]))
                    .sum();
                out.push(ezz);
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_time_gives_the_plus_state() {
        let r = readings(2, 3, Schedule { steps: 4, dt: 0.0 });
        for rank in r {
            // Z, X per spin then two ZZ bonds.
            assert_eq!(rank.len(), 8);
            for s in 0..3 {
                assert!(rank[2 * s].abs() < 1e-12);
                assert!((rank[2 * s + 1] - 1.0).abs() < 1e-12);
            }
            assert!(rank[6].abs() < 1e-12 && rank[7].abs() < 1e-12);
        }
    }

    #[test]
    fn matches_the_qalgo_dense_reference() {
        // The same two-step schedule through qalgo's single-simulator
        // Trotter step on a 4-spin ring.
        let schedule = Schedule { steps: 2, dt: 0.3 };
        let ours = readings(1, 4, schedule);
        let mut sim = qsim::Simulator::new(1);
        let spins = sim.alloc_n(4);
        for &q in &spins {
            sim.apply(qsim::Gate::H, q).unwrap();
        }
        for k in 0..2 {
            let (j, g) = schedule.couplings(k);
            qalgo::tfim::reference_trotter_step(&mut sim, &spins, j, g, schedule.dt);
        }
        let x0 = sim.expectation(&[(spins[0], qsim::Pauli::X)]).unwrap();
        let zz = sim
            .expectation(&[(spins[1], qsim::Pauli::Z), (spins[2], qsim::Pauli::Z)])
            .unwrap();
        assert!((ours[0][1] - x0).abs() < 1e-12, "{} vs {x0}", ours[0][1]);
        assert!(
            (ours[0][8 + 1] - zz).abs() < 1e-12,
            "{} vs {zz}",
            ours[0][9]
        );
    }
}
