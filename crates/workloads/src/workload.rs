//! The workload wrapper type.

use std::sync::Arc;

use icicle_isa::{DynStream, Interpreter, IsaError, Program};

/// A named, ready-to-run benchmark program.
///
/// The program image is reference-counted: benchmark harnesses build a
/// core per measurement repeat, and sharing one [`Arc`] keeps those
/// repeats from copying the text and data image every time.
#[derive(Clone, Debug)]
pub struct Workload {
    name: String,
    program: Arc<Program>,
    max_instrs: u64,
}

impl Workload {
    /// Wraps a built program with a dynamic-instruction budget.
    pub fn new(name: impl Into<String>, program: Program, max_instrs: u64) -> Workload {
        Workload {
            name: name.into(),
            program: Arc::new(program),
            max_instrs,
        }
    }

    /// The workload's name (as printed in figures and tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The program text and data image.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// A shared handle to the program — pass this to core constructors
    /// to avoid cloning the whole image per run.
    pub fn program_arc(&self) -> Arc<Program> {
        Arc::clone(&self.program)
    }

    /// The dynamic-instruction budget [`Workload::execute`] runs under.
    pub fn max_instrs(&self) -> u64 {
        self.max_instrs
    }

    /// Architecturally executes the workload.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors; in particular
    /// [`IsaError::InstructionLimit`] if the program exceeds its budget
    /// (which would indicate a bug in the workload definition).
    pub fn execute(&self) -> Result<DynStream, IsaError> {
        Interpreter::new(&self.program).run(self.max_instrs)
    }
}
