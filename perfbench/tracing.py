"""Per-layer tracing of contactctl from outside the package.

Every probe wraps one public name of a `contactctl` module. The wrapper is
installed at each module that holds a reference to the original object (the
defining module and every module that imported it with `from ... import`),
so a call is traced no matter which import path the caller used. Methods are
wrapped on their class. A probe whose name no longer exists is skipped and
reported as absent.

Span probes record (name, start, end, parent span, operation id) in memory;
count probes only count calls, for functions so small and hot that a span
would cost more than the call itself. Spans are written to disk only after
the measured operations, by `write_spans`.
"""

import csv
import gzip
import os
import sys
from array import array
from collections import defaultdict
from functools import partial
from time import perf_counter

SPAN = "span"
COUNT = "count"
GENERATOR = "generator"   # time each next() of the iterator a method returns

# (metric name, module, attribute path, kind)
PROBES = (
    ("geometry.cross3", "contactctl.geometry", "cross3", COUNT),
    ("kinematics.chain_frames", "contactctl.kinematics", "chain_frames", SPAN),
    ("kinematics.pose_error", "contactctl.kinematics", "pose_error", SPAN),
    ("kinematics.solve_ik", "contactctl.kinematics", "solve_ik", SPAN),
    ("dynamics.load_arm_model", "contactctl.dynamics", "load_arm_model", SPAN),
    ("dynamics.inverse_dynamics_terms", "contactctl.dynamics",
     "inverse_dynamics_terms", SPAN),
    ("dynamics.step", "contactctl.dynamics", "step", SPAN),
    ("dynamics.plane_contact_force", "contactctl.dynamics",
     "plane_contact_force", SPAN),
    ("dynamics.read_ft_sensor", "contactctl.dynamics", "read_ft_sensor", SPAN),
    ("dynamics.grasp_slip_check", "contactctl.dynamics", "grasp_slip_check", SPAN),
    ("sensing.gravity_model", "contactctl.sensing", "gravity_model", SPAN),
    ("sensing.identify_payload", "contactctl.sensing", "identify_payload", SPAN),
    ("sensing.compensate_wrench", "contactctl.sensing", "compensate_wrench", SPAN),
    ("bilateral.step_bilateral", "contactctl.bilateral", "step_bilateral", SPAN),
    ("bilateral.estimate_internal_force", "contactctl.bilateral",
     "estimate_internal_force", COUNT),
    ("compliance.compile_step", "contactctl.compliance", "compile_step", SPAN),
    ("compliance.interpolate_commands", "contactctl.compliance",
     "interpolate_commands", SPAN),
    ("compliance.scheduler_next", "contactctl.compliance",
     "RecedingHorizonScheduler.__iter__", GENERATOR),
    ("impedance.execute_tick", "contactctl.impedance",
     "ImpedanceExecutor.execute_tick", SPAN),
    ("impedance.build_operational_gains", "contactctl.impedance",
     "build_operational_gains", SPAN),
    ("impedance.fold_to_joint_gains", "contactctl.impedance",
     "fold_to_joint_gains", SPAN),
    ("impedance.control_torque", "contactctl.impedance", "control_torque", SPAN),
    ("episodes.record", "contactctl.episodes", "Episode.record", SPAN),
    ("episodes.align", "contactctl.episodes", "Episode.align", SPAN),
    ("episodes.export_csv", "contactctl.episodes", "export_csv", SPAN),
    ("episodes.load_episode", "contactctl.episodes", "load_episode", SPAN),
    ("episodes.validate_episode_dir", "contactctl.episodes",
     "validate_episode_dir", SPAN),
    ("episodes.replay_actions", "contactctl.episodes", "replay_actions", SPAN),
    ("scenarios.load_scenario_config", "contactctl.scenarios.base",
     "load_scenario_config", SPAN),
    ("scenarios.run_wiping", "contactctl.scenarios.wiping", "run_wiping", SPAN),
    ("scenarios.run_bottle_pick", "contactctl.scenarios.bottle",
     "run_bottle_pick", SPAN),
    ("scenarios.run_selective_release", "contactctl.scenarios.release",
     "run_selective_release", SPAN),
    ("scenarios.run_bilateral_signal_quality",
     "contactctl.scenarios.bilateral_quality",
     "run_bilateral_signal_quality", SPAN),
    ("scenarios.run_gravity_verification", "contactctl.scenarios.gravity",
     "run_gravity_verification", SPAN),
    ("cli.main", "contactctl.cli", "main", SPAN),
)

# probe metric -> counter filled from the probe's arguments or result
_EXTRA_COUNTERS = {
    "kinematics.solve_ik": "kinematics.solve_ik.iterations",
    "episodes.export_csv": "episodes.bytes_written",
    "episodes.load_episode": "episodes.bytes_read",
    "episodes.validate_episode_dir": "episodes.bytes_read",
}


def _dir_bytes(path) -> int:
    try:
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    except OSError:
        return 0


def _extra_count(metric, args, kwargs, result) -> int:
    if metric == "kinematics.solve_ik":
        return int(result.iterations)
    if metric == "episodes.export_csv":
        return sum(os.path.getsize(p) for p in result)
    # load_episode / validate_episode_dir take the episode directory first
    return _dir_bytes(args[0] if args else next(iter(kwargs.values())))


def _resolve(module_name, path):
    """(owner, attribute, object) for a dotted path, or None when absent."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, parts[-1], None)
    return None if obj is None else (owner, parts[-1], obj)


def replace_everywhere(module_name, path, make_wrapper):
    """Replace a public name with make_wrapper(original) wherever it is bound.

    A method is replaced on its class; a function in every loaded contactctl
    module that holds it. Returns the (owner, attribute, original) triples to
    restore, or None when the name does not exist.
    """
    found = _resolve(module_name, path)
    if found is None:
        return None
    owner, attr, original = found
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return [(owner, attr, original)]
    patches = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "contactctl" or name.startswith("contactctl.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                patches.append((module, key, original))
    return patches


class Tracer:
    """Installs the probes, collects spans and counts for one process.

    Spans of the operation in progress are tuples; `uninstall` folds them
    into the per-name totals and packs them into typed arrays, so a long run
    keeps about 30 bytes per span in memory.
    """

    def __init__(self):
        self.names = []          # span name table, indexed by the "name" column
        self.columns = {"name": array("H"), "start": array("d"), "end": array("d"),
                        "parent": array("q"), "op": array("q")}
        self.table = {}          # name -> [calls, inclusive s, self s]
        self.counts = defaultdict(int)
        self.absent = []
        self.op_id = -1
        self._spans = []         # (name, start, end, parent index) of this op
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self._count_cells = []   # (name, [calls]) of the installed count probes

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, extra):
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if extra is not None:
                self.counts[extra] += _extra_count(name, args, kwargs, result)
            return result
        return traced

    def _count_wrapper(self, name, fn):
        cell = [0]
        self._count_cells.append((name, cell))

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _generator_wrapper(self, name, fn):
        spans, stack = self._spans, self._stack

        def traced_iter(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[idx] = (name, start, end, parent)
                yield item
        return traced_iter

    def _wrap(self, name, kind, fn):
        if kind == COUNT:
            return self._count_wrapper(name, fn)
        if kind == GENERATOR:
            return self._generator_wrapper(name, fn)
        return self._span_wrapper(name, fn, _EXTRA_COUNTERS.get(name))

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        """Wrap every probe that exists; record the ones that do not."""
        self.absent = []
        for name, module_name, path, kind in PROBES:
            patches = replace_everywhere(module_name, path,
                                         partial(self._wrap, name, kind))
            if patches is None:
                self.absent.append(name)
            else:
                self._patches.extend(patches)

    def uninstall(self) -> None:
        """Restore every wrapped name and fold this operation's spans."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        for name, cell in self._count_cells:
            self.counts[name] += cell[0]
        self._count_cells = []
        self._fold_spans()

    def _fold_spans(self) -> None:
        spans = self._spans
        child = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        cols = self.columns
        base = len(cols["start"])
        codes = {name: i for i, name in enumerate(self.names)}
        for i, (name, start, end, parent) in enumerate(spans):
            entry = self.table.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
            if name not in codes:
                codes[name] = len(self.names)
                self.names.append(name)
            cols["name"].append(codes[name])
            cols["start"].append(start)
            cols["end"].append(end)
            cols["parent"].append(base + parent if parent >= 0 else -1)
            cols["op"].append(self.op_id)
        del spans[:]   # the wrappers hold this list

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.columns["start"])

    def write_spans(self, path) -> None:
        """Gzipped CSV, one span per row, parent as a row index (-1: none)."""
        cols = self.columns
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "op"])
            writer.writerows(zip((self.names[c] for c in cols["name"]),
                                 cols["start"], cols["end"], cols["parent"],
                                 cols["op"]))
