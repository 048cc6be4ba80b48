//! The compact stream against the uncompressed reference: for every
//! catalog workload, the decoded `DynStream` must equal the full
//! `DynInstr` records the interpreter executes, field by field.

use icicle_isa::{DynInstr, Interpreter, Reg};
use icicle_workloads::{by_name_seeded, names};

fn check(name: &str, seed: u64) {
    let w = by_name_seeded(name, seed).expect("catalog name resolves");
    let stream = w.execute().unwrap_or_else(|e| panic!("{name}/{seed}: {e}"));
    let (oracle, regs) = Interpreter::new(w.program())
        .run_recording(w.max_instrs())
        .unwrap_or_else(|e| panic!("{name}/{seed}: {e}"));
    assert_eq!(stream.len(), oracle.len(), "{name}/{seed}: length");
    for (seq, want) in oracle.iter().enumerate() {
        let got: DynInstr = stream.get(seq);
        assert_eq!(got.seq, want.seq, "{name}/{seed} at {seq}: seq");
        assert_eq!(got.pc, want.pc, "{name}/{seed} at {seq}: pc");
        assert_eq!(got.op, want.op, "{name}/{seed} at {seq}: op");
        assert_eq!(got.mem, want.mem, "{name}/{seed} at {seq}: mem");
        assert_eq!(got.branch, want.branch, "{name}/{seed} at {seq}: branch");
        assert_eq!(got.next_pc, want.next_pc, "{name}/{seed} at {seq}: next_pc");
        assert_eq!(stream.pc(seq), want.pc, "{name}/{seed} at {seq}: pc()");
    }
    assert!(
        stream.iter().eq(oracle.iter().copied()),
        "{name}/{seed}: iter"
    );
    for r in 0..32 {
        let reg = Reg::new(r);
        assert_eq!(
            stream.trailing_reg(reg),
            regs[r as usize],
            "{name}/{seed}: x{r}"
        );
    }
}

#[test]
fn decoded_streams_equal_the_reference_at_seed_0() {
    for name in names() {
        check(name, 0);
    }
}

#[test]
fn decoded_streams_equal_the_reference_at_seed_7() {
    for name in names() {
        check(name, 7);
    }
}
