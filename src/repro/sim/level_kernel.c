/*
 * The compiled level kernel of repro.sim: settle and clock edge of the
 * serial engine (2-byte net codes) and of the batched engine (64-lane
 * dual-rail words), walking the same tables in the same gate order as
 * the numpy level tables in cycle_sim.py and batch_sim.py, which stay
 * as the fallback and as the bitwise reference.
 *
 * C99 with no Python headers and nothing netlist-specific: every table
 * is an argument.  repro/sim/native.py builds this file once per host,
 * loads it with ctypes and packs the tables, checking every index
 * against its buffer before any pointer reaches this code.
 */
#include <stdint.h>

/* a net code is val | known << 8; masking the operands keeps every
 * table index inside the table whatever bytes a plane holds */
#define CODE_BITS 0x0101u

/* Serial settle.  gates: n_gates rows of int32 (in0, in1, in2, offset,
 * out) in level order -- a gate never reads an output of its own level,
 * so one pass in this order equals level-at-a-time evaluation.  The
 * n_forces forced codes are written first and forced[out] != 0 skips a
 * forced gate output, which equals re-asserting the forces after every
 * level that drives one. */
void repro_serial_settle(uint16_t *code, const uint16_t *gate_table,
                         const int32_t *gates, int64_t n_gates,
                         const int64_t *f_nets, const uint16_t *f_codes,
                         int64_t n_forces, const uint8_t *forced)
{
    for (int64_t f = 0; f < n_forces; f++)
        code[f_nets[f]] = f_codes[f];
    for (int64_t g = 0; g < n_gates; g++, gates += 5) {
        int32_t out = gates[4];
        if (n_forces && forced[out])
            continue;
        code[out] = gate_table[gates[3]
                               + (code[gates[0]] & CODE_BITS)
                               + 2 * (code[gates[1]] & CODE_BITS)
                               + 4 * (code[gates[2]] & CODE_BITS)];
    }
}

/* Serial clock edge.  flops: n_flops rows of int32 (q, d, e, r, offset,
 * kind); next: n_flops scratch codes.  Every next state is computed
 * before any is written (the NBA region of a real edge).  Returns 1
 * when a Q changed. */
int repro_serial_edge(uint16_t *code, const uint16_t *flop_table,
                      const int32_t *flops, int64_t n_flops,
                      uint16_t *next)
{
    const int32_t *f = flops;
    for (int64_t i = 0; i < n_flops; i++, f += 6)
        next[i] = flop_table[f[4]
                             + (code[f[0]] & CODE_BITS)
                             + 2 * (code[f[1]] & CODE_BITS)
                             + 4 * (code[f[2]] & CODE_BITS)
                             + 8 * (code[f[3]] & CODE_BITS)];
    int changed = 0;
    f = flops;
    for (int64_t i = 0; i < n_flops; i++, f += 6) {
        if (code[f[0]] != next[i]) {
            code[f[0]] = next[i];
            changed = 1;
        }
    }
    return changed;
}

/* Lane settle.  rails: 2 * rows words, the zero-rails then the
 * one-rails of the n_nets nets and of a constant-0 and a constant-1
 * row.  gates: n_gates rows of int32 rail positions (s_zero, s_one,
 * d0_zero, d0_one, d1_zero, d1_one, out_zero, out_one) in level order;
 * per rail r the Kleene mux is (s_zero & d0_r) | (s_one & d1_r) |
 * (d0_r & d1_r).  Force f keeps the f_keep[f] lanes of net f_nets[f]
 * and sets the forced lanes' rails f_zero[f] / f_one[f]; f_index maps a
 * net to its force (or -1).  Forces apply before the gate loop and to
 * each forced gate output as it is written. */
void repro_lane_settle(uint64_t *val, uint64_t *known, uint64_t *rails,
                       int64_t n_nets, int64_t rows,
                       const int32_t *gates, int64_t n_gates,
                       const int64_t *f_nets, const uint64_t *f_keep,
                       const uint64_t *f_zero, const uint64_t *f_one,
                       int64_t n_forces, const int32_t *f_index)
{
    uint64_t *zero = rails, *one = rails + rows;
    for (int64_t i = 0; i < n_nets; i++) {
        zero[i] = known[i] ^ val[i];
        one[i] = val[i];
    }
    for (int64_t f = 0; f < n_forces; f++) {
        int64_t net = f_nets[f];
        zero[net] = (zero[net] & f_keep[f]) | f_zero[f];
        one[net] = (one[net] & f_keep[f]) | f_one[f];
    }
    for (int64_t g = 0; g < n_gates; g++, gates += 8) {
        uint64_t s_zero = rails[gates[0]], s_one = rails[gates[1]];
        uint64_t d0_zero = rails[gates[2]], d0_one = rails[gates[3]];
        uint64_t d1_zero = rails[gates[4]], d1_one = rails[gates[5]];
        uint64_t out_zero = (s_zero & d0_zero) | (s_one & d1_zero)
                            | (d0_zero & d1_zero);
        uint64_t out_one = (s_zero & d0_one) | (s_one & d1_one)
                           | (d0_one & d1_one);
        if (n_forces) {
            int32_t f = f_index[gates[6]];
            if (f >= 0) {
                out_zero = (out_zero & f_keep[f]) | f_zero[f];
                out_one = (out_one & f_keep[f]) | f_one[f];
            }
        }
        rails[gates[6]] = out_zero;
        rails[gates[7]] = out_one;
    }
    for (int64_t i = 0; i < n_nets; i++) {
        val[i] = one[i];
        known[i] = zero[i] | one[i];
    }
}

/* Lane clock edge.  flops: as for repro_serial_edge; kind bit 0 is an
 * enable pin, bit 1 a reset pin.  stage: 2 * n_flops scratch words.
 * Every next state is staged before any is committed.  Returns 1 when
 * a bit of a lane in `active` changed. */
int repro_lane_edge(uint64_t *val, uint64_t *known, const int32_t *flops,
                    int64_t n_flops, uint64_t *stage, uint64_t active)
{
    const int32_t *f = flops;
    for (int64_t i = 0; i < n_flops; i++, f += 6) {
        uint64_t vd = val[f[1]], kd = known[f[1]];
        uint64_t nv = vd, nk = kd;
        if (f[5] & 1) {
            /* enable: load on 1, hold on 0; an X enable keeps the
             * value only where d and q agree */
            uint64_t vq = val[f[0]], kq = known[f[0]];
            uint64_t ve = val[f[2]], ke = known[f[2]];
            uint64_t agree = kd & kq & ~(vd ^ vq);
            nv = (ke & ((ve & vd) | (~ve & vq))) | (~ke & agree & vd);
            nk = (ke & ((ve & kd) | (~ve & kq))) | (~ke & agree);
        }
        if (f[5] & 2) {
            /* reset to 0; an X reset keeps only a known 0 */
            uint64_t vr = val[f[3]], kr = known[f[3]];
            uint64_t r_on = kr & vr, r_off = kr & ~vr;
            uint64_t known_zero = nk & ~nv;
            nk = r_on | (r_off & nk) | (~kr & known_zero);
            nv = r_off & nv;
        }
        stage[2 * i] = nv;
        stage[2 * i + 1] = nk;
    }
    uint64_t changed = 0;
    f = flops;
    for (int64_t i = 0; i < n_flops; i++, f += 6) {
        changed |= (stage[2 * i] ^ val[f[0]])
                   | (stage[2 * i + 1] ^ known[f[0]]);
        val[f[0]] = stage[2 * i];
        known[f[0]] = stage[2 * i + 1];
    }
    return (changed & active) != 0;
}
