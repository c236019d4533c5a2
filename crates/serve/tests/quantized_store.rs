//! Quality-pinning tests for the reduced-precision serving stores.
//!
//! Two layers of guarantees, tested separately:
//!
//! * **Exactness over the dequantized rows.** A reduced-precision store
//!   must answer *exactly* like `Model::recommend` on the model whose
//!   item rows are the store's dequantized rows — scoring accumulates
//!   in f32 and the Cauchy–Schwarz bounds are derived from those same
//!   rows, so the prune never drops a true top-k item at any precision.
//!   Property-tested for both the serial scan and the batched tile
//!   sweep, including adversarial norm skews that make pruning fire.
//! * **Quality floors vs the f32 store.** Quantization perturbs the
//!   rows themselves; against the exact f32 answers we pin recall@10
//!   (f16 = 1.0, int8 ≥ 0.99 on realistic factor scales) and the
//!   per-score error to its analytic budget (f16: relative 2⁻¹¹ per
//!   element; int8: `scale/2 = (max−min)/510` absolute per element,
//!   Σ|p| weighted).

use mf_fuzz::{check, Gen};
use mf_serve::{FactorStore, Precision, Query, TopK};
use mf_sgd::sweep::f16_round;
use mf_sgd::Model;

/// The store's exact-answer oracle: the source model with every item
/// row replaced by the row the store actually serves (dequantized).
fn dequantized_model(model: &Model, store: &FactorStore) -> Model {
    let mut m = model.clone();
    for v in 0..m.ncols() {
        m.q_row_mut(v).copy_from_slice(&store.item_row_f32(v));
    }
    m
}

fn topk_bits(t: &TopK) -> Vec<(u32, u32)> {
    t.items.iter().map(|&(v, s)| (v, s.to_bits())).collect()
}

fn recall_at(a: &TopK, b: &TopK) -> f64 {
    let want: std::collections::HashSet<u32> = b.items.iter().map(|&(v, _)| v).collect();
    if want.is_empty() {
        return 1.0;
    }
    let hit = a.items.iter().filter(|&&(v, _)| want.contains(&v)).count();
    hit as f64 / want.len() as f64
}

/// Never-miss prune, serial scan: at every precision, the answer is
/// bit-identical to `Model::recommend` over the dequantized rows. Norm
/// skews (a band of inflated rows) make the tile and per-item prunes
/// actually fire, so a bound that under-covered the quantized scores
/// would drop items here.
#[test]
fn scan_is_exact_over_dequantized_rows() {
    let input = |g: &mut Gen| (g.int(0u64..1 << 16), g.int(0usize..3), g.int(1usize..40));
    check(24, 1, input, |(seed, skew, count)| {
        let n = 700u32;
        let mut model = Model::init(6, n, 16, seed);
        if skew > 0 {
            // Inflate a band so the top-k clusters and pruning fires.
            for v in (n - 30)..n {
                for x in model.q_row_mut(v) {
                    *x *= 8.0 * skew as f32;
                }
            }
        }
        for precision in [Precision::F32, Precision::F16, Precision::Int8] {
            let store = FactorStore::with_precision(model.clone(), 1, precision);
            let oracle = dequantized_model(&model, &store);
            for user in [0u32, 5] {
                let q = Query::top_k(user, count);
                let got = store.serve_one(&q);
                let want = TopK {
                    items: oracle.recommend(user, &[], count),
                };
                let at = precision.name();
                assert_eq!(
                    topk_bits(&got),
                    topk_bits(&want),
                    "precision={at} user={user}"
                );
            }
        }
    });
}

/// Never-miss prune, batched sweep: `sweep_batch` must agree with the
/// serial scan bit for bit at every precision (the decode-once tile path
/// serves the same rows the scan decodes per item).
#[test]
fn sweep_batch_is_exact_at_every_precision() {
    let input = |g: &mut Gen| (g.int(0u64..1 << 16), g.int(1usize..25));
    check(24, 2, input, |(seed, count)| {
        let model = Model::init(12, 900, 8, seed);
        for precision in [Precision::F32, Precision::F16, Precision::Int8] {
            let store = FactorStore::with_precision(model.clone(), 1, precision);
            let queries: Vec<Query> = (0..12).map(|u| Query::top_k(u, count)).collect();
            let serial: Vec<Vec<(u32, u32)>> = queries
                .iter()
                .map(|q| topk_bits(&store.serve_one(q)))
                .collect();
            let swept: Vec<Vec<(u32, u32)>> =
                store.sweep_batch(&queries).iter().map(topk_bits).collect();
            assert_eq!(swept, serial, "precision={}", precision.name());
        }
    });
}

/// Per-score error stays inside the analytic budget. For f16 each
/// element carries ≤ 2⁻¹¹ relative error, so `|Δscore| ≤ 2⁻¹¹ · Σ|pᵢ·qᵢ|`;
/// for int8 each element of row `q` carries ≤ `scale/2` absolute error
/// with the affine `scale = (max−min)/255`, so
/// `|Δscore| ≤ (scale/2) · Σ|pᵢ|`. A small f32 accumulation slack is
/// added on top of both.
#[test]
fn score_error_within_analytic_budget() {
    let input = |g: &mut Gen| g.int(0u64..1 << 16);
    check(24, 3, input, |seed| {
        let k = 32usize;
        let model = Model::init(4, 600, k, seed);
        for precision in [Precision::F16, Precision::Int8] {
            let store = FactorStore::with_precision(model.clone(), 1, precision);
            for u in 0..4u32 {
                let p = model.p_row(u);
                let p_l1: f32 = p.iter().map(|x| x.abs()).sum();
                for v in (0..600u32).step_by(97) {
                    let q = model.q_row(v);
                    let exact: f32 = p.iter().zip(q).map(|(a, b)| a * b).sum();
                    let served: f32 = p
                        .iter()
                        .zip(store.item_row_f32(v))
                        .map(|(a, b)| a * b)
                        .sum();
                    let budget = match precision {
                        Precision::F16 => {
                            let dot_l1: f32 = p.iter().zip(q).map(|(a, b)| (a * b).abs()).sum();
                            dot_l1 / 2048.0
                        }
                        _ => {
                            let lo = q.iter().fold(f32::INFINITY, |a, &b| a.min(b));
                            let hi = q.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                            ((hi - lo) / 255.0 / 2.0) * p_l1
                        }
                    } + 1e-5;
                    let at = precision.name();
                    assert!(
                        (served - exact).abs() <= budget,
                        "precision={at} u={u} v={v}: |{served} - {exact}| > {budget}"
                    );
                }
            }
        }
    });
}

/// Recall floors at k=10 over many users of a trained-like model,
/// measured against the exact f32 store. Trained catalogs are
/// popularity-skewed — item norms decay from head to tail (that's what
/// makes the Cauchy–Schwarz prune worth having) — so the generated
/// model applies a smooth popularity decay to the item rows; on a
/// uniform-iid catalog the rank-10 score gaps collapse toward zero and
/// *any* perturbation loses recall, which says nothing about serving a
/// real model. Floors: f16 ≈ 1.0 (pinned ≥ 0.995, its 2⁻¹¹ relative
/// error only swaps exact-borderline pairs), int8 ≥ 0.99 (the
/// acceptance floor).
#[test]
fn recall_floors_at_k10() {
    let mut model = Model::init(64, 2000, 32, 2024);
    for v in 0..2000u32 {
        // Head items ~3.5× the tail — a mild popularity curve.
        let pop = 1.0 + 2.5 * (-(v as f32) / 400.0).exp();
        for x in model.q_row_mut(v) {
            *x *= pop;
        }
    }
    let f32_store = FactorStore::new(model.clone(), 1);
    for (precision, floor) in [(Precision::F16, 0.995), (Precision::Int8, 0.99)] {
        let store = FactorStore::with_precision(model.clone(), 1, precision);
        let mut total = 0.0;
        for u in 0..64u32 {
            let q = Query::top_k(u, 10);
            total += recall_at(&store.serve_one(&q), &f32_store.serve_one(&q));
        }
        let recall = total / 64.0;
        eprintln!("{} recall@10 = {recall}", precision.name());
        assert!(
            recall >= floor,
            "{} recall@10 {} below floor {}",
            precision.name(),
            recall,
            floor
        );
    }
}

/// Resident-size contract: int8 tiles must be at least 2× smaller than
/// f32 (they are ≈ 3.2× at k=32: 1 byte/element + 8 bytes/row for the
/// affine scale and offset), f16 exactly 2× smaller.
#[test]
fn quantized_stores_shrink_resident_bytes() {
    let model = Model::init(4, 1500, 32, 7);
    let f32_bytes = FactorStore::new(model.clone(), 1).resident_factor_bytes();
    let f16 = FactorStore::with_precision(model.clone(), 1, Precision::F16);
    let int8 = FactorStore::with_precision(model.clone(), 1, Precision::Int8);
    assert_eq!(f16.resident_factor_bytes() * 2, f32_bytes);
    assert!(
        int8.resident_factor_bytes() * 2 <= f32_bytes,
        "int8 {} vs f32 {}",
        int8.resident_factor_bytes(),
        f32_bytes
    );
    assert_eq!(f32_bytes, 1500 * 32 * 4);
}

/// The f16 store's rows are exactly `f16_round` of the trained rows —
/// the same binary16 semantics the simulated GPU's half-precision mode
/// trains with (bit-stored u16 round-trips through the shared codec).
#[test]
fn f16_rows_match_f16_round_semantics() {
    let model = Model::init(2, 300, 16, 99);
    let store = FactorStore::with_precision(model.clone(), 1, Precision::F16);
    for v in 0..300u32 {
        let served = store.item_row_f32(v);
        for (i, (&orig, &got)) in model.q_row(v).iter().zip(&served).enumerate() {
            assert_eq!(
                got.to_bits(),
                f16_round(orig).to_bits(),
                "item {v} element {i}"
            );
        }
    }
}

/// NaN rows must survive quantization as NaN (not be silently dropped
/// by a `max`-based scale) so the NaN-norm unprunable path still
/// protects them, and the answers still match the dequantized oracle.
#[test]
fn nan_rows_stay_unprunable_at_every_precision() {
    let mut model = Model::init(2, 1100, 8, 31);
    for x in model.q_row_mut(777) {
        *x = f32::NAN;
    }
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let store = FactorStore::with_precision(model.clone(), 1, precision);
        let oracle = dequantized_model(&model, &store);
        let q = Query::top_k(1, 5);
        let got = store.serve_one(&q);
        let want = TopK {
            items: oracle.recommend(1, &[], 5),
        };
        assert_eq!(topk_bits(&got), topk_bits(&want), "{}", precision.name());
        assert_eq!(got.items[0].0, 777, "NaN item must rank first");
    }
}
