use crate::activation::{sigmoid, tanh, Activation};
use crate::dense::{add_product_lanes, affine_into, affine_lanes, LANES};
use crate::matrix::{dot, Matrix};
use crate::optimizer::{Adam, Optimizer};
use crate::workspace::Workspace;

/// A single-layer LSTM (no peepholes, forget-gate bias initialized to 1).
///
/// Gate layout in the packed matrices is `[input, forget, candidate,
/// output]`, each `hidden_size` wide.
///
/// Inference has one entry point, [`Lstm::final_hidden_windows_with`]: a
/// lockstep batch of sequences, reading the parameters training updates.
/// Each full block of eight sequences runs rows-in-lanes, one SIMD lane per
/// sequence, and the rest row-major; every state is the same bits either
/// way.
#[derive(Debug, Clone)]
pub struct Lstm {
    /// Input→gates weights, `input_size × 4·hidden`.
    w_x: Matrix,
    /// Hidden→gates weights, `hidden × 4·hidden`.
    w_h: Matrix,
    /// Gate biases, `1 × 4·hidden`.
    bias: Matrix,
    input_size: usize,
    hidden_size: usize,
}

/// Training scratch of one LSTM: the per-timestep values BPTT needs, in
/// flat buffers sized by the first window and reused. The per-step buffers
/// hold one row per timestep **in BPTT order** — row `s` is timestep
/// `T−1−s` — so the backward pass walks them top to bottom and the weight
/// gradients, which sum over the steps in reverse-time order, are plain
/// ascending-row products (`Xᵀ·δ`) over those buffers.
#[derive(Debug, Clone, Default)]
struct Bptt {
    /// Step inputs, `T × input`.
    xs: Matrix,
    /// Input→gates products `x·w_x`, `T × 4h` (bias not yet added).
    zx: Matrix,
    /// Hidden and cell state entering each step, `T × h`.
    h_prev: Matrix,
    c_prev: Matrix,
    /// Activated gates `[i, f, g, o]`, `T × 4h`.
    gates: Matrix,
    /// `tanh(c)` leaving each step, `T × h`.
    tanh_c: Matrix,
    /// Gate pre-activation gradients, `T × 4h`.
    dz: Matrix,
    /// Running hidden/cell state (`1 × h`); after the forward pass, the
    /// final state.
    h: Matrix,
    c: Matrix,
    /// The current step's hidden→gates product `h·w_h` (`1 × 4h`).
    zh: Matrix,
    /// Running gradients w.r.t. the hidden/cell state (`1 × h`) and the
    /// current step's row of `dz` (`1 × 4h`).
    dh: Matrix,
    dc: Matrix,
    dz_row: Matrix,
    grad_wx: Matrix,
    grad_wh: Matrix,
    grad_b: Matrix,
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialized weights, deterministic in
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new(input_size: usize, hidden_size: usize, seed: u64) -> Self {
        assert!(input_size > 0 && hidden_size > 0, "sizes must be positive");
        let mut bias = Matrix::zeros(1, 4 * hidden_size);
        // Forget-gate bias 1.0: standard trick to avoid early vanishing.
        for j in hidden_size..2 * hidden_size {
            bias.set(0, j, 1.0);
        }
        Lstm {
            w_x: Matrix::xavier(input_size, 4 * hidden_size, seed),
            w_h: Matrix::xavier(hidden_size, 4 * hidden_size, seed ^ 0xabcd),
            bias,
            input_size,
            hidden_size,
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden-state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Training-time forward pass over one window (`T` timesteps laid end
    /// to end), keeping every step's gates, states and `tanh(c)` in `s` for
    /// [`Lstm::backward`]; the final hidden state is left in `s.h`. Each
    /// step's arithmetic is the chain the inference path builds for a
    /// one-row batch: `z = (x·w_x + b) + h·w_h`, gate-wise.
    fn forward_training(&self, window: &[f64], s: &mut Bptt) {
        let (d, h) = (self.input_size, self.hidden_size);
        assert_eq!(window.len() % d, 0, "window width must be a multiple of the input width");
        let steps = window.len() / d;
        s.xs.reshape(steps, d);
        for (t, x) in window.chunks_exact(d).enumerate() {
            s.xs.row_mut(steps - 1 - t).copy_from_slice(x);
        }
        // The input projections do not depend on the recurrence: one
        // product for the whole window.
        s.xs.matmul_into(&self.w_x, &mut s.zx);
        for m in [&mut s.h_prev, &mut s.c_prev, &mut s.tanh_c] {
            m.reshape(steps, h);
        }
        s.gates.reshape(steps, 4 * h);
        s.h.reshape_zeroed(1, h);
        s.c.reshape_zeroed(1, h);
        let bias = self.bias.as_slice();
        for row in (0..steps).rev() {
            s.h_prev.row_mut(row).copy_from_slice(s.h.as_slice());
            s.c_prev.row_mut(row).copy_from_slice(s.c.as_slice());
            s.h.matmul_into(&self.w_h, &mut s.zh);
            let (gates, tanh_c) = (s.gates.row_mut(row), s.tanh_c.row_mut(row));
            for (((z, &zx), &b), &zh) in
                gates.iter_mut().zip(s.zx.row(row)).zip(bias).zip(s.zh.as_slice())
            {
                *z = (zx + b) + zh;
            }
            gate_update(h, gates, s.c.as_mut_slice(), tanh_c);
            Activation::Tanh.apply(tanh_c);
            for ((hidden, &o), &t) in
                s.h.as_mut_slice().iter_mut().zip(&gates[3 * h..]).zip(tanh_c.iter())
            {
                *hidden = o * t;
            }
        }
    }

    /// BPTT over the window [`Lstm::forward_training`] cached: takes the
    /// gradient w.r.t. the final hidden state in `s.dh` and leaves the
    /// parameter gradients in `s.grad_wx` / `s.grad_wh` / `s.grad_b`.
    ///
    /// The per-step `dz` rows are collected first (last timestep on top),
    /// then each weight gradient is one `Xᵀ·δ` product whose ascending-row
    /// chain is the reverse-time accumulation `grad += xᵀ·dz` of the
    /// reference, bit for bit: a sum that starts `0 + a·b` is never `−0`,
    /// so adding each further term bare or as `0 + a·b` rounds alike.
    fn backward(&self, s: &mut Bptt) {
        let h = self.hidden_size;
        let steps = s.xs.rows();
        s.dz.reshape(steps, 4 * h);
        s.dz_row.reshape(1, 4 * h);
        s.dc.reshape_zeroed(1, h);
        for row in 0..steps {
            let (gates, tanh_c, c_prev) = (s.gates.row(row), s.tanh_c.row(row), s.c_prev.row(row));
            let (dh, dc, dz) = (s.dh.as_slice(), s.dc.as_mut_slice(), s.dz_row.as_mut_slice());
            for j in 0..h {
                let (i, f, g, o) = (gates[j], gates[h + j], gates[2 * h + j], gates[3 * h + j]);
                let d_o = dh[j] * tanh_c[j];
                let dc_total = dc[j] + (dh[j] * o) * (1.0 - tanh_c[j] * tanh_c[j]);
                // Pre-activation gradients (gate order: i, f, g, o).
                dz[j] = (dc_total * g) * (i * (1.0 - i));
                dz[h + j] = (dc_total * c_prev[j]) * (f * (1.0 - f));
                dz[2 * h + j] = (dc_total * i) * (1.0 - g * g);
                dz[3 * h + j] = d_o * (o * (1.0 - o));
                dc[j] = dc_total * f;
            }
            s.dz.row_mut(row).copy_from_slice(s.dz_row.as_slice());
            // dh for the step before (from the pre-update weights); the
            // first timestep has nobody to hand it to.
            if row + 1 < steps {
                s.dz_row.matmul_transposed_into(&self.w_h, &mut s.dh);
            }
        }
        s.xs.transposed_matmul_into(&s.dz, &mut s.grad_wx);
        s.h_prev.transposed_matmul_into(&s.dz, &mut s.grad_wh);
        s.dz.column_sums_into(&mut s.grad_b);
    }

    /// Runs a lockstep batch of sequences and returns their final hidden
    /// states: row `i` of `windows` is one sequence of `T` timesteps laid
    /// end to end (`T · input_size` columns — for HELAD's width-one score
    /// histories simply the `T` scores), and row `i` of the returned
    /// `M × hidden` matrix, which lives inside `ws`, is that sequence's
    /// final state. Zero heap allocations once `ws` is warm; a single
    /// sequence is a batch of one row.
    ///
    /// Per timestep the sequences advance together, so the recurrent
    /// weights stream through cache once per timestep instead of once per
    /// sequence per timestep. Each full block of `LANES` (8) rows runs
    /// *rows-in-lanes*: the block's state is one `[f64; 8]` per unit, one
    /// lane per sequence, and both products and every activation run eight
    /// sequences per vector. The last `m mod 8` rows — so every one-row
    /// call — run row-major, where the hidden→gates product is one
    /// `M×h · h×4h` matmul. Every row's arithmetic chain is the chain the
    /// training-time step builds for that sequence alone,
    /// `z = ((0 + Σ x·w_x) + b) + (0 + Σ h·w_h)` and then the crate's
    /// `sigmoid`/`tanh` and `c = f·c + i·g`, so each returned state is
    /// bitwise independent of the rows it was batched with and of the
    /// kernel that ran it (pinned by the `batch_rows_parity` proptests).
    ///
    /// # Panics
    ///
    /// Panics if the window width is not a multiple of the input width.
    pub fn final_hidden_windows_with<'w>(
        &self,
        windows: &Matrix,
        ws: &'w mut Workspace,
    ) -> &'w Matrix {
        self.run(windows, ws);
        &ws.hidden
    }

    /// [`Lstm::final_hidden_windows_with`], leaving the states in
    /// `ws.hidden` so crate-internal callers can keep using the rest of
    /// `ws`. Each full block of `LANES` windows runs rows-in-lanes
    /// ([`Lstm::run_lanes`]); the last `m mod LANES` windows — so every
    /// one-row call — run row-major ([`Lstm::run_rows`]). Both build every
    /// element by the chain the training-time step builds, so which kernel
    /// ran a window never shows in its state.
    fn run(&self, windows: &Matrix, ws: &mut Workspace) {
        let (d, h) = (self.input_size, self.hidden_size);
        assert_eq!(windows.cols() % d, 0, "window width must be a multiple of the input width");
        let m = windows.rows();
        let blocked = m - m % LANES;
        self.run_rows(windows, blocked, ws);
        if blocked > 0 {
            // The tail's states wait in `cell`, which the tail no longer
            // needs, while the blocks fill the rows above them.
            ws.cell.assign(m - blocked, h, ws.hidden.as_slice());
            ws.hidden.reshape(m, h);
            self.run_lanes(windows, blocked, ws);
            ws.hidden.as_mut_slice()[blocked * h..].copy_from_slice(ws.cell.as_slice());
        }
    }

    /// The row-major kernel of [`Lstm::run`] over the windows from row
    /// `first` on, their final states left in `ws.hidden` (one row each).
    /// Per timestep the rows advance together, so the hidden→gates product
    /// is one `M×h · h×4h` matmul.
    fn run_rows(&self, windows: &Matrix, first: usize, ws: &mut Workspace) {
        let (d, h) = (self.input_size, self.hidden_size);
        let (m, steps) = (windows.rows() - first, windows.cols() / d);
        ws.hidden.reshape_zeroed(m, h);
        ws.cell.reshape_zeroed(m, h);
        for step in 0..steps {
            // z = (x·Wx + b) + h·Wh, summed in exactly the order the
            // training-time forward uses: the two products land in separate
            // buffers and one flat pass over the step matrix adds them.
            if d == 1 {
                // Width-one input (the HELAD score history): x·Wx is a
                // scalar broadcast, fused with the bias add in one pass —
                // the chain the general branch builds, without a kernel
                // call per row per step on the slowest detector's hot loop.
                ws.gates.reshape(m, 4 * h);
                let (wx, bias) = (self.w_x.row(0), self.bias.as_slice());
                for i in 0..m {
                    let x0 = windows.row(first + i)[step];
                    let gates = ws.gates.row_mut(i).iter_mut();
                    for ((g, &w), &b) in gates.zip(wx).zip(bias) {
                        *g = (0.0 + x0 * w) + b;
                    }
                }
            } else {
                ws.stage.reshape(m, d);
                for i in 0..m {
                    let x = &windows.row(first + i)[step * d..(step + 1) * d];
                    ws.stage.row_mut(i).copy_from_slice(x);
                }
                let bias = self.bias.as_slice();
                affine_into(&ws.stage, &self.w_x, bias, Activation::Linear, &mut ws.gates);
            }
            ws.hidden.matmul_into(&self.w_h, &mut ws.gates_h);
            for (z, &zh) in ws.gates.as_mut_slice().iter_mut().zip(ws.gates_h.as_slice()) {
                *z += zh;
            }
            // The gates row by row, then `tanh(c)` for every sequence of the
            // batch in one pass: `hidden` holds `c` in between.
            for i in 0..m {
                gate_update(h, ws.gates.row_mut(i), ws.cell.row_mut(i), ws.hidden.row_mut(i));
            }
            Activation::Tanh.apply(ws.hidden.as_mut_slice());
            for i in 0..m {
                for (t, &o) in ws.hidden.row_mut(i).iter_mut().zip(&ws.gates.row(i)[3 * h..]) {
                    *t *= o;
                }
            }
        }
    }

    /// The rows-in-lanes kernel of [`Lstm::run`] over the first `rows`
    /// windows, a whole number of `LANES`-row blocks, one SIMD lane per
    /// window: per timestep the block's inputs are transposed into
    /// feature-major scratch, the input term `(0 + Σ x·w_x) + b` is
    /// [`affine_lanes`] and the recurrent term `0 + Σ h·w_h` joins it through
    /// [`add_product_lanes`], and the gates, the cell update and `tanh(c)`
    /// run over whole eight-lane arrays. Each block's final states are
    /// transposed back into rows `0..rows` of `ws.hidden`.
    fn run_lanes(&self, windows: &Matrix, rows: usize, ws: &mut Workspace) {
        let (d, h) = (self.input_size, self.hidden_size);
        let steps = windows.cols() / d;
        let Workspace { lanes, hidden, .. } = ws;
        // One `[f64; LANES]` per input feature, gate and unit of state.
        lanes.resize(d + 6 * h, [0.0; LANES]);
        let (xt, rest) = lanes.split_at_mut(d);
        let (z, rest) = rest.split_at_mut(4 * h);
        let (ht, ct) = rest.split_at_mut(h);
        let (wx, wh, bias) = (self.w_x.as_slice(), self.w_h.as_slice(), self.bias.as_slice());
        for first in (0..rows).step_by(LANES) {
            ht.fill([0.0; LANES]);
            ct.fill([0.0; LANES]);
            for step in 0..steps {
                for lane in 0..LANES {
                    let x = &windows.row(first + lane)[step * d..(step + 1) * d];
                    for (feature, &v) in xt.iter_mut().zip(x) {
                        feature[lane] = v;
                    }
                }
                affine_lanes(xt, wx, bias, z);
                add_product_lanes(ht, wh, z);
                gate_update_lanes(h, z, ct, ht);
            }
            for lane in 0..LANES {
                for (out, unit) in hidden.row_mut(first + lane).iter_mut().zip(ht.iter()) {
                    *out = unit[lane];
                }
            }
        }
    }
}

/// The gate kernel for one sequence at one timestep. `z` enters as the
/// summed pre-activations `[i, f, g, o]` and leaves activated — sigmoid over
/// `[0, 2h)` and `[3h, 4h)`, tanh over `[2h, 3h)`, each a bare slice loop
/// (see [`Activation::apply`]) rather than four interleaved scalar calls per
/// hidden unit. Then the cell update `c = f·c + i·g`, written to `cell` and
/// to `c_out`, where the caller takes its tanh.
#[inline]
fn gate_update(h: usize, z: &mut [f64], cell: &mut [f64], c_out: &mut [f64]) {
    let (input_forget, rest) = z.split_at_mut(2 * h);
    let (candidate, output) = rest.split_at_mut(h);
    Activation::Sigmoid.apply(input_forget);
    Activation::Tanh.apply(candidate);
    Activation::Sigmoid.apply(output);
    let (i_gate, f_gate) = input_forget.split_at(h);
    for j in 0..h {
        let c = f_gate[j] * cell[j] + i_gate[j] * candidate[j];
        cell[j] = c;
        c_out[j] = c;
    }
}

/// [`gate_update`] for one block of `LANES` sequences, then the new hidden
/// state: `z` holds the summed pre-activations `[i, f, g, o]` one array
/// per unit, `c = f·c + i·g` and `h = tanh(c)·o` are written to `cell` and
/// `hidden` — per lane the operations the row-major step performs.
#[inline]
fn gate_update_lanes(
    h: usize,
    z: &mut [[f64; LANES]],
    cell: &mut [[f64; LANES]],
    hidden: &mut [[f64; LANES]],
) {
    let (input_forget, rest) = z.split_at_mut(2 * h);
    let (candidate, output) = rest.split_at_mut(h);
    for unit in input_forget.iter_mut().chain(output.iter_mut()) {
        for v in unit.iter_mut() {
            *v = sigmoid(*v);
        }
    }
    for unit in candidate.iter_mut() {
        for v in unit.iter_mut() {
            *v = tanh(*v);
        }
    }
    let (i_gate, f_gate) = input_forget.split_at(h);
    for j in 0..h {
        for lane in 0..LANES {
            let c = f_gate[j][lane] * cell[j][lane] + i_gate[j][lane] * candidate[j][lane];
            cell[j][lane] = c;
            hidden[j][lane] = tanh(c) * output[j][lane];
        }
    }
}

/// Configuration for [`LstmRegressor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LstmRegressorConfig {
    /// Hidden-state width.
    pub hidden_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for LstmRegressorConfig {
    fn default() -> Self {
        LstmRegressorConfig { hidden_size: 16, learning_rate: 0.01, seed: 0 }
    }
}

/// An LSTM with a scalar linear head, trained by truncated BPTT over fixed
/// windows. HELAD uses this to predict the next anomaly score from recent
/// history.
///
/// **Training contract.** [`LstmRegressor::train_window`] takes a window in
/// the shape [`LstmRegressor::predict_windows_with`] takes a row — the
/// timesteps laid end to end — and runs in `f64` over model-owned scratch
/// (flat `T × 4h` / `T × h` per-step buffers, the gradients, Adam's
/// moments) that the first window sizes and later windows reuse: a
/// steady-state step performs zero heap allocations (pinned by
/// `hot_path_allocs`) and forms no transpose. The update is pinned bit for
/// bit to the allocating reference in `tests/training_reference.rs`: BPTT
/// accumulates in reverse-time order, each `dh` comes from the pre-update
/// recurrent weights, then clip → Adam.
///
/// # Examples
///
/// ```
/// use idsbench_nn::{LstmRegressor, LstmRegressorConfig, Matrix, Workspace};
///
/// let mut model = LstmRegressor::new(1, LstmRegressorConfig::default());
/// // Learn "output the last input".
/// for round in 0..300 {
///     let v = f64::from(round % 2);
///     model.train_window(&[v; 5], v);
/// }
/// // One five-step sequence per row.
/// let windows = Matrix::from_rows(&[&[1.0; 5], &[0.0; 5]]);
/// let mut predictions = Vec::new();
/// model.predict_windows_with(&windows, &mut predictions, &mut Workspace::new());
/// assert!(predictions[0] > predictions[1]);
/// ```
#[derive(Debug, Clone)]
pub struct LstmRegressor {
    lstm: Lstm,
    head_w: Matrix,
    head_b: Matrix,
    optimizer: Adam,
    trained_sequences: u64,
    /// Training scratch (see the training contract above).
    bptt: Bptt,
    grad_head_w: Matrix,
    grad_head_b: Matrix,
}

/// Parameter ids for the optimizer state.
const PID_WX: usize = 0;
const PID_WH: usize = 1;
const PID_B: usize = 2;
const PID_HEAD_W: usize = 3;
const PID_HEAD_B: usize = 4;

impl LstmRegressor {
    /// Creates a regressor over sequences of `input_size`-wide vectors.
    ///
    /// # Panics
    ///
    /// Panics if `input_size` or the configured hidden size is zero, or the
    /// learning rate is not positive.
    pub fn new(input_size: usize, config: LstmRegressorConfig) -> Self {
        LstmRegressor {
            lstm: Lstm::new(input_size, config.hidden_size, config.seed),
            head_w: Matrix::xavier(config.hidden_size, 1, config.seed ^ 0xbeef),
            head_b: Matrix::zeros(1, 1),
            optimizer: Adam::new(config.learning_rate),
            trained_sequences: 0,
            bptt: Bptt::default(),
            grad_head_w: Matrix::default(),
            grad_head_b: Matrix::default(),
        }
    }

    /// Number of training sequences consumed.
    pub fn trained_sequences(&self) -> u64 {
        self.trained_sequences
    }

    /// The trainable parameters in optimizer-id order — `w_x`, `w_h`, the
    /// gate bias, the head weights, the head bias (read-only: for
    /// inspection and for the training reference tests).
    pub fn parameters(&self) -> [&Matrix; 5] {
        [&self.lstm.w_x, &self.lstm.w_h, &self.lstm.bias, &self.head_w, &self.head_b]
    }

    /// Predicts the scalar target of every sequence in a lockstep batch:
    /// row `i` of `windows` is one sequence (laid out as
    /// [`Lstm::final_hidden_windows_with`] describes), and one prediction
    /// per row is appended to `out`. Zero heap allocations once `ws` is
    /// warm; each prediction is bitwise independent of the rows it was
    /// batched with, while the recurrent weights stream through cache once
    /// per timestep for the whole batch. A zero-width window predicts from
    /// the zero hidden state.
    ///
    /// # Panics
    ///
    /// Panics if the window width is not a multiple of the input width.
    pub fn predict_windows_with(&self, windows: &Matrix, out: &mut Vec<f64>, ws: &mut Workspace) {
        self.lstm.run(windows, ws);
        // The scalar head, per row: the expression `train_window` uses.
        let (head_w, head_b) = (self.head_w.as_slice(), self.head_b.get(0, 0));
        for i in 0..ws.hidden.rows() {
            out.push(dot(ws.hidden.row(i), head_w) + head_b);
        }
    }

    /// One BPTT step on `(window, target)`, the window's timesteps laid end
    /// to end; returns the squared error before the update.
    ///
    /// # Panics
    ///
    /// Panics if `window` is empty or not a whole number of timesteps.
    pub fn train_window(&mut self, window: &[f64], target: f64) -> f64 {
        assert!(!window.is_empty(), "sequence must be non-empty");
        let hidden = self.lstm.hidden_size;
        let s = &mut self.bptt;
        self.lstm.forward_training(window, s);
        let head_w = self.head_w.as_slice();
        let prediction = dot(s.h.as_slice(), head_w) + self.head_b.get(0, 0);
        let loss = (prediction - target).powi(2);

        // Head gradients, and the gradient entering the last timestep.
        let dpred = 2.0 * (prediction - target);
        self.grad_head_w.reshape(hidden, 1);
        for (g, &h) in self.grad_head_w.as_mut_slice().iter_mut().zip(s.h.as_slice()) {
            *g = h * dpred;
        }
        self.grad_head_b.assign(1, 1, &[dpred]);
        s.dh.reshape(1, hidden);
        for (d, &w) in s.dh.as_mut_slice().iter_mut().zip(head_w) {
            *d = w * dpred;
        }
        self.lstm.backward(s);

        // Clip to keep long windows stable.
        for grad in [&mut s.grad_wx, &mut s.grad_wh, &mut s.grad_b] {
            clip_norm(grad, 5.0);
        }

        self.optimizer.step(PID_WX, &mut self.lstm.w_x, &s.grad_wx);
        self.optimizer.step(PID_WH, &mut self.lstm.w_h, &s.grad_wh);
        self.optimizer.step(PID_B, &mut self.lstm.bias, &s.grad_b);
        self.optimizer.step(PID_HEAD_W, &mut self.head_w, &self.grad_head_w);
        self.optimizer.step(PID_HEAD_B, &mut self.head_b, &self.grad_head_b);
        self.trained_sequences += 1;
        loss
    }
}

fn clip_norm(grad: &mut Matrix, max_norm: f64) {
    let norm = grad.norm();
    if norm > max_norm {
        let scale = max_norm / norm;
        for g in grad.as_mut_slice() {
            *g *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sequence as a one-row window matrix (timesteps laid end to end).
    fn window(seq: &[Vec<f64>]) -> Matrix {
        Matrix::row_vector(&seq.concat())
    }

    /// Prediction for one sequence.
    fn predict(model: &LstmRegressor, seq: &[Vec<f64>]) -> f64 {
        let mut out = Vec::new();
        model.predict_windows_with(&window(seq), &mut out, &mut Workspace::new());
        out[0]
    }

    /// Final hidden state for one sequence.
    fn final_hidden(lstm: &Lstm, seq: &[Vec<f64>]) -> Matrix {
        lstm.final_hidden_windows_with(&window(seq), &mut Workspace::new()).clone()
    }

    #[test]
    fn learns_to_echo_last_input() {
        let mut model = LstmRegressor::new(
            1,
            LstmRegressorConfig { hidden_size: 8, learning_rate: 0.02, seed: 5 },
        );
        let mut loss = f64::INFINITY;
        for round in 0..600 {
            let v = (round % 4) as f64 / 4.0;
            loss = model.train_window(&[0.5, 0.5, 0.5, 0.5, 0.5, v], v);
        }
        assert!(loss < 0.05, "final loss {loss}");
    }

    #[test]
    fn learns_sequence_mean() {
        let mut model = LstmRegressor::new(
            1,
            LstmRegressorConfig { hidden_size: 12, learning_rate: 0.01, seed: 9 },
        );
        let sequences: Vec<(Vec<Vec<f64>>, f64)> = (0..8)
            .map(|k| {
                let xs: Vec<Vec<f64>> = (0..5).map(|j| vec![((k + j) % 5) as f64 / 5.0]).collect();
                let mean = xs.iter().map(|v| v[0]).sum::<f64>() / 5.0;
                (xs, mean)
            })
            .collect();
        let mut total = 0.0;
        for epoch in 0..400 {
            total = 0.0;
            for (xs, y) in &sequences {
                total += model.train_window(&xs.concat(), *y);
            }
            if epoch > 50 && total < 0.01 {
                break;
            }
        }
        assert!(total < 0.05, "total loss {total}");
    }

    /// Finite-difference gradient check on a tiny LSTM regressor.
    #[test]
    fn bptt_gradient_matches_numeric() {
        let seq = vec![vec![0.2, -0.1], vec![0.5, 0.3], vec![-0.4, 0.1]];
        let target = 0.7;
        let eps = 1e-5;

        let base = LstmRegressor::new(
            2,
            LstmRegressorConfig { hidden_size: 3, learning_rate: 1e-9, seed: 13 },
        );

        // Analytic: capture parameter delta after one tiny-lr Adam step is
        // messy; instead recompute gradients via a clone trained with plain
        // SGD at lr so that Δparam = -lr * clipped_grad. Use lr small enough
        // that clipping never triggers.
        let mut trained = base.clone();
        // Replace Adam with effectively-linear behaviour by taking a single
        // step and reading the parameter delta is unreliable; check loss
        // decrease direction instead plus numeric loss gradient on w_x[0,0].
        let loss_of = |model: &LstmRegressor| {
            let p = predict(model, &seq);
            (p - target).powi(2)
        };

        // Numeric gradient for one representative weight in each matrix.
        let mut perturbed = base.clone();
        let orig = perturbed.lstm.w_x.get(0, 0);
        perturbed.lstm.w_x.set(0, 0, orig + eps);
        let lp = loss_of(&perturbed);
        perturbed.lstm.w_x.set(0, 0, orig - eps);
        let lm = loss_of(&perturbed);
        let numeric = (lp - lm) / (2.0 * eps);

        // One training step should move w_x[0,0] opposite to the numeric
        // gradient (Adam preserves sign of the first step).
        let before = trained.lstm.w_x.get(0, 0);
        trained.train_window(&seq.concat(), target);
        let after = trained.lstm.w_x.get(0, 0);
        if numeric.abs() > 1e-8 {
            assert!(
                (after - before) * numeric < 0.0,
                "step direction {} disagrees with numeric gradient {numeric}",
                after - before
            );
        }
    }

    #[test]
    fn final_hidden_is_deterministic() {
        let lstm = Lstm::new(2, 4, 21);
        let seq = vec![vec![0.1, 0.2], vec![0.3, 0.4]];
        assert_eq!(final_hidden(&lstm, &seq), final_hidden(&lstm, &seq));
    }

    #[test]
    fn hidden_state_is_bounded() {
        let lstm = Lstm::new(1, 4, 3);
        let seq: Vec<Vec<f64>> = (0..100).map(|i| vec![(i as f64 * 1e3).sin() * 100.0]).collect();
        let h = final_hidden(&lstm, &seq);
        for &v in h.as_slice() {
            assert!(v.abs() <= 1.0, "lstm hidden state must stay in [-1,1]: {v}");
        }
    }

    /// The inference path is the training-time forward pass, bit for bit,
    /// at input widths one and above.
    #[test]
    fn inference_is_bitwise_the_training_forward() {
        for input_size in [1, 3] {
            let lstm = Lstm::new(input_size, 5, 17);
            let seq: Vec<Vec<f64>> = (0..7)
                .map(|t| (0..input_size).map(|k| ((t * 3 + k) as f64 * 0.37).sin()).collect())
                .collect();
            let mut scratch = Bptt::default();
            lstm.forward_training(&seq.concat(), &mut scratch);
            assert_eq!(final_hidden(&lstm, &seq), scratch.h, "input width {input_size}");
        }
    }

    #[test]
    #[should_panic(expected = "sequence must be non-empty")]
    fn empty_training_sequence_panics() {
        let mut model = LstmRegressor::new(1, LstmRegressorConfig::default());
        let _ = model.train_window(&[], 0.0);
    }
}
