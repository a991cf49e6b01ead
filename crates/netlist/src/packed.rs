//! Bit-parallel 64-lane packed simulation over the compiled op tape.
//!
//! Every net holds a `u64`: bit `l` is the net's boolean value in lane `l`,
//! so one pass of the tape evaluates up to 64 independent simulations (64
//! chips or 64 input vectors of a Monte-Carlo cohort) with single bitwise
//! AND/OR/XOR/NOT instructions. Per-lane activation sets extracted with
//! [`PackedSimulator::lane_activation`] are **bitwise identical** to what a
//! scalar [`crate::sim::Simulator`] produces for that lane's stimulus: the
//! packed kernel replicates the reference cycle semantics exactly — clock
//! edge (forced-else-captured flip-flops, driven inputs), combinational
//! propagation in topological order, D-pin recapture — just 64 lanes at a
//! time.

use crate::bitset::BitSet;
use crate::gate::{GateId, GateKind};
use crate::netlist::Netlist;
use crate::sim::bus_bit;
use crate::tape::{CompiledTape, TapeRun};

/// Maximum lanes per packed word.
pub const LANES: usize = 64;

/// The word with bits `0..lanes` set (`lanes ≤ 64`).
pub fn lane_mask(lanes: usize) -> u64 {
    if lanes >= LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// A 64-lane bit-parallel simulator over a [`Netlist`].
///
/// Lanes are independent simulations: drive each lane's inputs and forced
/// flip-flops separately, then one [`PackedSimulator::step`] advances all of
/// them. Combinational propagation runs over a [`CompiledTape`] in either
/// full-sweep mode (every op, straight-line) or event-driven mode (dirty
/// tape spans only).
///
/// # Example
/// ```
/// use terse_netlist::builder::NetlistBuilder;
/// use terse_netlist::gate::GateKind;
/// use terse_netlist::netlist::EndpointClass;
/// use terse_netlist::packed::PackedSimulator;
///
/// # fn main() -> Result<(), terse_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(1);
/// let a = b.input("a", 0)?;
/// let q = b.flip_flop("q", EndpointClass::Data, 0)?;
/// let g = b.gate(GateKind::Not, &[a], 0)?;
/// b.connect_ff_input(q, g)?;
/// let n = b.finish()?;
///
/// let mut sim = PackedSimulator::new(&n, 2);
/// sim.set_input(a, 0, true);   // lane 0 drives a=1
/// sim.set_input(a, 1, false);  // lane 1 drives a=0
/// sim.step();
/// assert!(!sim.value(g, 0));   // NOT(1) = 0 in lane 0
/// assert!(sim.value(g, 1));    // NOT(0) = 1 in lane 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PackedSimulator<'n> {
    netlist: &'n Netlist,
    tape: CompiledTape,
    lanes: u32,
    /// Packed current value of every gate (slot = gate index).
    slab: Vec<u64>,
    /// Packed captured D values waiting to appear on Q at the next edge.
    ff_next: Vec<u64>,
    /// Per-gate lane mask of pending forced writes, and their values.
    forced_mask: Vec<u64>,
    forced_val: Vec<u64>,
    /// Dirty bitmap over tape positions (event mode).
    dirty: Vec<u64>,
    /// Slots whose value changed in the current cycle.
    touched: Vec<u32>,
    /// Per-slot 64-lane toggle mask of the current cycle (sparse: only
    /// entries listed in `touched` are live).
    toggle: Vec<u64>,
    /// Sequential elements updated at the clock edge.
    seq: Vec<GateId>,
    event_driven: bool,
    settled: bool,
    cycle: u64,
    ops_executed: u64,
    ops_skipped: u64,
}

impl<'n> PackedSimulator<'n> {
    /// Creates an event-driven packed simulator with `lanes` live lanes
    /// (clamped to `1..=64`), all nets initially low (ties at their
    /// constant).
    pub fn new(netlist: &'n Netlist, lanes: usize) -> Self {
        Self::with_mode(netlist, lanes, true)
    }

    /// Creates a full-sweep packed simulator: every tape op executes every
    /// cycle (the `FullScan` analogue; reference semantics, no dirty
    /// tracking).
    pub fn full_sweep(netlist: &'n Netlist, lanes: usize) -> Self {
        Self::with_mode(netlist, lanes, false)
    }

    fn with_mode(netlist: &'n Netlist, lanes: usize, event_driven: bool) -> Self {
        let n = netlist.gate_count();
        let tape = CompiledTape::compile(netlist);
        let seq: Vec<GateId> = netlist
            .gate_ids()
            .filter(|&g| matches!(netlist.kind(g), GateKind::FlipFlop | GateKind::Input))
            .collect();
        let dirty = vec![0u64; tape.dirty_words()];
        let mut sim = PackedSimulator {
            netlist,
            tape,
            lanes: 1,
            slab: vec![0u64; n],
            ff_next: vec![0u64; n],
            forced_mask: vec![0u64; n],
            forced_val: vec![0u64; n],
            dirty,
            touched: Vec::new(),
            toggle: vec![0u64; n],
            seq,
            event_driven,
            settled: false,
            cycle: 0,
            ops_executed: 0,
            ops_skipped: 0,
        };
        sim.reset(lanes);
        sim
    }

    /// Returns every lane to the freshly built state — all nets low, ties
    /// at their constant, nothing forced or captured, cycle 0 — now with
    /// `lanes` live lanes (clamped to `1..=64`). The compiled tape is kept,
    /// so independent runs reuse one compilation; the cumulative
    /// [`PackedSimulator::ops_executed`] and
    /// [`PackedSimulator::ops_skipped`] counters keep accumulating.
    pub fn reset(&mut self, lanes: usize) {
        self.lanes = lanes.clamp(1, LANES) as u32;
        for id in self.netlist.gate_ids() {
            self.slab[id.index()] = match self.netlist.kind(id) {
                GateKind::Tie(true) => u64::MAX,
                _ => 0,
            };
        }
        self.ff_next.fill(0);
        self.forced_mask.fill(0);
        self.forced_val.fill(0);
        self.dirty.fill(0);
        for &s in &self.touched {
            self.toggle[s as usize] = 0;
        }
        self.touched.clear();
        self.settled = false;
        self.cycle = 0;
    }

    /// Seeds the packed state from a scalar simulator's state (lane 0),
    /// used by `Simulator` to switch strategies at a cycle boundary.
    pub(crate) fn from_scalar_state(
        netlist: &'n Netlist,
        event_driven: bool,
        values: &[bool],
        ff_next: &[bool],
        settled: bool,
    ) -> Self {
        let mut sim = Self::with_mode(netlist, 1, event_driven);
        for (i, &v) in values.iter().enumerate() {
            sim.slab[i] = if v { 1 } else { 0 };
        }
        for (i, &v) in ff_next.iter().enumerate() {
            sim.ff_next[i] = if v { 1 } else { 0 };
        }
        sim.settled = settled;
        sim
    }

    /// Copies lane-0 state back into scalar vectors (strategy switch).
    pub(crate) fn to_scalar_state(&self, values: &mut [bool], ff_next: &mut [bool]) -> bool {
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.slab[i] & 1 == 1;
        }
        for (i, v) in ff_next.iter_mut().enumerate() {
            *v = self.ff_next[i] & 1 == 1;
        }
        self.settled
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Number of live lanes (1–64).
    pub fn lane_count(&self) -> usize {
        self.lanes as usize
    }

    /// Clock cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cumulative tape ops executed — each one evaluates a gate in *all*
    /// lanes at once (compare with the scalar simulator's per-lane
    /// `gates_evaluated`).
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Cumulative tape ops skipped by the dirty-span scan.
    pub fn ops_skipped(&self) -> u64 {
        self.ops_skipped
    }

    /// Tape length (ops per full sweep).
    pub fn tape_len(&self) -> usize {
        self.tape.len()
    }

    /// The compiled tape driving this simulator.
    pub fn tape(&self) -> &CompiledTape {
        &self.tape
    }

    /// Output value of a gate in one lane.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `lane` is out of range.
    pub fn value(&self, id: GateId, lane: usize) -> bool {
        assert!(lane < self.lanes as usize, "lane out of range");
        self.slab[id.index()] >> lane & 1 == 1
    }

    /// Packed 64-lane word of a gate's output.
    pub fn value_word(&self, id: GateId) -> u64 {
        self.slab[id.index()]
    }

    /// Reads a named bus as an integer (LSB first) in one lane.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NetlistError::UnknownName`] for unknown buses.
    pub fn bus_value(&self, name: &str, lane: usize) -> crate::Result<u64> {
        let ids = self.netlist.bus(name)?;
        let mut v = 0u64;
        for (i, &g) in ids.iter().enumerate().take(64) {
            if self.value(g, lane) {
                v |= 1 << i;
            }
        }
        Ok(v)
    }

    /// Drives a primary input in one lane (takes effect at the next step).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an input port or `lane` is out of range.
    pub fn set_input(&mut self, id: GateId, lane: usize, value: bool) {
        assert_eq!(
            self.netlist.kind(id),
            GateKind::Input,
            "set_input requires an input port"
        );
        self.force_lane(id, lane, value);
    }

    /// Drives a named input bus in one lane from an integer (LSB first).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NetlistError::UnknownName`] for unknown buses.
    ///
    /// # Panics
    ///
    /// Panics if any bus bit is not an input port.
    pub fn set_input_bus(&mut self, name: &str, lane: usize, value: u64) -> crate::Result<()> {
        let netlist = self.netlist;
        self.set_input_ids(netlist.bus(name)?, lane, value);
        Ok(())
    }

    /// Drives the input ports `ids` in one lane from an integer, bit `i`
    /// to `ids[i]` (bits past 63 read as zero) —
    /// [`PackedSimulator::set_input_bus`] over an already resolved bus.
    ///
    /// # Panics
    ///
    /// Panics if any id is not an input port or `lane` is out of range.
    pub fn set_input_ids(&mut self, ids: &[GateId], lane: usize, value: u64) {
        for (i, &g) in ids.iter().enumerate() {
            self.set_input(g, lane, bus_bit(value, i));
        }
    }

    /// Forces a flip-flop's Q output in one lane for the next cycle.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a flip-flop or `lane` is out of range.
    pub fn force_ff(&mut self, id: GateId, lane: usize, value: bool) {
        assert_eq!(
            self.netlist.kind(id),
            GateKind::FlipFlop,
            "force_ff requires a flip-flop"
        );
        self.force_lane(id, lane, value);
    }

    /// Forces a named flip-flop bank in one lane from an integer (LSB
    /// first).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NetlistError::UnknownName`] for unknown buses.
    ///
    /// # Panics
    ///
    /// Panics if any bus bit is not a flip-flop.
    pub fn force_ff_bus(&mut self, name: &str, lane: usize, value: u64) -> crate::Result<()> {
        let netlist = self.netlist;
        self.force_ff_ids(netlist.bus(name)?, lane, value);
        Ok(())
    }

    /// Forces the flip-flops `ids` in one lane from an integer, bit `i` to
    /// `ids[i]` (bits past 63 read as zero) —
    /// [`PackedSimulator::force_ff_bus`] over an already resolved bus.
    ///
    /// # Panics
    ///
    /// Panics if any id is not a flip-flop or `lane` is out of range.
    pub fn force_ff_ids(&mut self, ids: &[GateId], lane: usize, value: u64) {
        for (i, &g) in ids.iter().enumerate() {
            self.force_ff(g, lane, bus_bit(value, i));
        }
    }

    fn force_lane(&mut self, id: GateId, lane: usize, value: bool) {
        assert!(lane < self.lanes as usize, "lane out of range");
        let i = id.index();
        let bit = 1u64 << lane;
        self.forced_mask[i] |= bit;
        if value {
            self.forced_val[i] |= bit;
        } else {
            self.forced_val[i] &= !bit;
        }
    }

    /// Advances one clock cycle in every lane. Per-lane activation sets of
    /// this cycle are read with [`PackedSimulator::lane_activation`].
    pub fn step(&mut self) {
        // Reset the previous cycle's toggle records.
        for &s in &self.touched {
            self.toggle[s as usize] = 0;
        }
        self.touched.clear();
        let first = !self.settled;
        let mark_events = self.event_driven && !first;
        // Clock edge: flip-flops take forced-else-captured values, inputs
        // take driven values (undriven lanes hold). Event propagation is
        // deferred until every sequential element has captured: a direct
        // FF→FF D edge must forward the driver's *new* Q only after the
        // downstream flip-flop has sampled the old one (all edges fire
        // simultaneously in the reference semantics).
        for k in 0..self.seq.len() {
            let i = self.seq[k].index();
            let mask = self.forced_mask[i];
            let new = if self.netlist.kind(self.seq[k]) == GateKind::FlipFlop {
                (self.ff_next[i] & !mask) | (self.forced_val[i] & mask)
            } else {
                if mask == 0 {
                    continue;
                }
                (self.slab[i] & !mask) | (self.forced_val[i] & mask)
            };
            self.forced_mask[i] = 0;
            let changed = new ^ self.slab[i];
            if changed != 0 {
                self.slab[i] = new;
                self.toggle[i] = changed;
                // terse-analyze: allow(AZ005): slab index is a dense gate index, < 2^32.
                self.touched.push(i as u32);
            }
        }
        if mark_events {
            // `touched` holds exactly the edge-toggled slots at this point.
            for k in 0..self.touched.len() {
                let s = self.touched[k];
                self.tape
                    .touch_source(s, &self.slab, &mut self.dirty, &mut self.ff_next);
            }
        }
        // Combinational propagation over the tape.
        let run: TapeRun = if !self.event_driven {
            let r = self
                .tape
                .execute_full(&mut self.slab, &mut self.touched, &mut self.toggle);
            self.tape.capture_all(&self.slab, &mut self.ff_next);
            r
        } else if first {
            self.tape.mark_all_dirty(&mut self.dirty);
            let r = self.tape.execute_event(
                &mut self.slab,
                &mut self.dirty,
                &mut self.touched,
                &mut self.toggle,
                &mut self.ff_next,
            );
            // Establish the `ff_next == slab[D]` invariant the incremental
            // D-edge forwarding maintains from now on.
            self.tape.capture_all(&self.slab, &mut self.ff_next);
            r
        } else {
            self.tape.execute_event(
                &mut self.slab,
                &mut self.dirty,
                &mut self.touched,
                &mut self.toggle,
                &mut self.ff_next,
            )
        };
        self.ops_executed += run.executed;
        self.ops_skipped += run.skipped;
        self.settled = true;
        self.cycle += 1;
    }

    /// Slots whose value changed in the most recent cycle (any lane).
    pub fn touched_slots(&self) -> &[u32] {
        &self.touched
    }

    /// 64-lane toggle mask of a gate for the most recent cycle.
    pub fn toggle_word(&self, id: GateId) -> u64 {
        self.toggle[id.index()]
    }

    /// The activation set `VCD(t)` of the most recent cycle in one lane —
    /// bitwise identical to the scalar simulator's [`BitSet`] for the same
    /// per-lane stimulus.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_activation(&self, lane: usize) -> BitSet {
        assert!(lane < self.lanes as usize, "lane out of range");
        let mut act = BitSet::new(self.netlist.gate_count());
        for &s in &self.touched {
            if self.toggle[s as usize] >> lane & 1 == 1 {
                act.insert(s as usize);
            }
        }
        act
    }

    /// The activation sets of the most recent cycle for the lanes set in
    /// `lanes` (bit `l` = lane `l`), indexed by lane; unselected lanes get
    /// an empty set. One pass over the touched slots builds them all, and
    /// each equals [`PackedSimulator::lane_activation`] of its lane.
    pub fn lane_activations(&self, lanes: u64) -> Vec<BitSet> {
        let live = lanes & lane_mask(self.lanes as usize);
        let n = self.netlist.gate_count();
        let mut acts = vec![BitSet::new(n); self.lanes as usize];
        for &s in &self.touched {
            let mut w = self.toggle[s as usize] & live;
            while w != 0 {
                acts[w.trailing_zeros() as usize].insert(s as usize);
                w &= w - 1;
            }
        }
        acts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::netlist::EndpointClass;
    use crate::sim::{SimStrategy, Simulator};

    /// 2-bit counter (same circuit as the scalar sim tests).
    fn counter() -> Netlist {
        let mut b = NetlistBuilder::new(1);
        let q0 = b.flip_flop("q0", EndpointClass::Control, 0).unwrap();
        let q1 = b.flip_flop("q1", EndpointClass::Control, 0).unwrap();
        let n0 = b.gate(GateKind::Not, &[q0], 0).unwrap();
        let t1 = b.gate(GateKind::Xor, &[q1, q0], 0).unwrap();
        b.connect_ff_input(q0, n0).unwrap();
        b.connect_ff_input(q1, t1).unwrap();
        b.name_bus("count", &[q0, q1]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn all_lanes_count_in_lockstep() {
        let n = counter();
        let mut sim = PackedSimulator::new(&n, 64);
        let mut seen = Vec::new();
        for _ in 0..5 {
            sim.step();
            seen.push(sim.bus_value("count", 0).unwrap());
            // Identical stimulus in every lane → identical values.
            for lane in 1..64 {
                assert_eq!(sim.bus_value("count", lane).unwrap(), seen[seen.len() - 1]);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn lanes_diverge_under_distinct_stimulus() {
        let mut b = NetlistBuilder::new(1);
        let xs = b.input_bus("x", 4, 0).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(ff, xs[0]).unwrap();
        let n = b.finish().unwrap();
        let mut sim = PackedSimulator::new(&n, 3);
        sim.set_input_bus("x", 0, 0xA).unwrap();
        sim.set_input_bus("x", 1, 0x5).unwrap();
        sim.set_input_bus("x", 2, 0xF).unwrap();
        sim.step();
        assert_eq!(sim.bus_value("x", 0).unwrap(), 0xA);
        assert_eq!(sim.bus_value("x", 1).unwrap(), 0x5);
        assert_eq!(sim.bus_value("x", 2).unwrap(), 0xF);
    }

    #[test]
    fn lane_activation_matches_scalar_sim() {
        let n = counter();
        let mut scalar = Simulator::with_strategy(&n, SimStrategy::FullScan);
        let mut packed = PackedSimulator::new(&n, 7);
        for cycle in 0..12 {
            let act = scalar.step();
            packed.step();
            for lane in 0..7 {
                assert_eq!(
                    packed.lane_activation(lane),
                    act,
                    "lane {lane} diverged at cycle {cycle}"
                );
            }
            for g in n.gate_ids() {
                assert_eq!(packed.value(g, 3), scalar.value(g));
            }
        }
    }

    #[test]
    fn full_sweep_and_event_modes_agree() {
        let n = counter();
        let mut ev = PackedSimulator::new(&n, 5);
        let mut full = PackedSimulator::full_sweep(&n, 5);
        for cycle in 0..16 {
            ev.step();
            full.step();
            for lane in 0..5 {
                assert_eq!(
                    ev.lane_activation(lane),
                    full.lane_activation(lane),
                    "cycle {cycle}"
                );
            }
        }
        assert!(ev.ops_executed() <= full.ops_executed());
        assert_eq!(full.ops_skipped(), 0);
    }

    #[test]
    fn forcing_overrides_capture_per_lane() {
        let n = counter();
        let q0 = n.bus("q0").unwrap()[0];
        let mut sim = PackedSimulator::new(&n, 2);
        sim.step();
        sim.force_ff(q0, 0, false); // lane 0 held, lane 1 free-runs
        sim.step();
        assert!(!sim.value(q0, 0));
        assert!(sim.value(q0, 1));
    }

    #[test]
    fn tie_cells_hold_value_in_every_lane() {
        let mut b = NetlistBuilder::new(1);
        let one = b.tie(true, 0).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Control, 0).unwrap();
        b.connect_ff_input(ff, one).unwrap();
        let n = b.finish().unwrap();
        let mut sim = PackedSimulator::new(&n, 64);
        assert_eq!(sim.value_word(one), u64::MAX);
        sim.step();
        sim.step();
        for lane in 0..64 {
            assert!(sim.value(ff, lane));
        }
    }
}
