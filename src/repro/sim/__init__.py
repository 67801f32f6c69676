"""Transaction-level simulation substrate.

Reproduces the experimental setup of Figure 4: the design executes a
usage scenario, monitors convert activity into flow messages, and a
trace buffer captures the selected subset.

* :mod:`repro.sim.engine` -- discrete-event execution of interleaved
  flows with clock-cycle timestamps, payload values, and fault
  injection hooks.
* :mod:`repro.sim.monitors` -- signal-to-message monitors for
  gate-level designs (the System-Verilog monitors of Figure 4).
* :mod:`repro.sim.tracebuffer` -- the on-chip trace buffer model.
* :mod:`repro.sim.tracefile` -- the output trace-file format.
* :mod:`repro.sim.testbench` -- a regression-test library in the style
  of the ``fc1_all_T2`` environment.
"""

from repro.lazy import lazy_exports

# re-exported on first use, so importing the engine does not load the
# gate-level monitors (and the netlist package) or the test bench
__getattr__, __dir__ = lazy_exports(globals(), {
    "engine": (
        "TransactionSimulator", "SimulationTrace", "TraceRecord", "Symptom",
    ),
    "tracebuffer": (
        "CapturedMessage", "CaptureStats", "CompressedTraceBuffer",
        "TraceBuffer",
    ),
    "monitors": ("SignalMonitor", "run_monitors"),
    "tracefile": ("write_trace_file", "read_trace_file"),
    "testbench": ("RegressionTest", "regression_suite"),
})

__all__ = [
    "TransactionSimulator",
    "SimulationTrace",
    "TraceRecord",
    "Symptom",
    "TraceBuffer",
    "CapturedMessage",
    "CaptureStats",
    "CompressedTraceBuffer",
    "SignalMonitor",
    "run_monitors",
    "write_trace_file",
    "read_trace_file",
    "RegressionTest",
    "regression_suite",
]
