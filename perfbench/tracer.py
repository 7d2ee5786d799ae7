"""Per-layer timing taken from outside thinlab.

`Tracer.install` replaces chosen public functions and methods of the thinlab
modules by timing wrappers.  A module-level function is replaced in every
thinlab module that holds it, because modules import each other's functions
by name (`cf_lip` in `expander` and `decay`) and a call is timed only where
the name is looked up.  Nothing in `src/` changes.

Each wrapper belongs to a group.  A group records its calls, its busy time
(time with at least one of its calls running, so nested calls of the same
group count once), its self time (durations minus the wrapped calls inside
them) and named counters read from arguments or results.
"""

import functools
import importlib
import inspect
import time

MODULES = ("thinlab", "thinlab.schottky", "thinlab.symbolic", "thinlab.thermo",
           "thinlab.congruence", "thinlab.expander", "thinlab.decay")


class _Group:
    __slots__ = ("calls", "busy_s", "self_s", "active", "counters")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.counters = {}


class Tracer:
    def __init__(self):
        self.groups = {}
        self._stack = []      # child time accumulated by each open wrapped call

    def group(self, name):
        if name not in self.groups:
            self.groups[name] = _Group()
        return self.groups[name]

    def total_self_s(self):
        return sum(g.self_s for g in self.groups.values())

    def _wrap(self, fn, choose, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            grp = tracer.group(choose(args, kwargs))
            grp.active += 1
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                grp.active -= 1
                grp.calls += 1
                grp.self_s += dt - frame[0]
                if grp.active == 0:
                    grp.busy_s += dt
            if count is not None:
                for key, val in count(args, kwargs, result).items():
                    grp.counters[key] = grp.counters.get(key, 0) + val
            return result

        return wrapper

    def install(self, targets):
        """Wrap each (module, attribute path, group or chooser, counter) target.

        A target that thinlab lacks raises LookupError, naming every missing
        one: its metrics would otherwise read 0 without notice.
        """
        modules = [importlib.import_module(m) for m in MODULES]
        missing = [f"{m}.{path}" for m, path, _, _ in targets if _lookup(m, path) is None]
        if missing:
            raise LookupError("tracer targets not found in thinlab: " + ", ".join(missing))
        for module_name, path, group, count in targets:
            choose = group if callable(group) else (lambda a, k, g=group: g)
            owner, attr = _lookup(module_name, path)
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self._wrap(raw.__func__, choose, count)))
            elif inspect.isclass(owner):
                setattr(owner, attr, self._wrap(raw, choose, count))
            else:
                wrapped = self._wrap(raw, choose, count)
                for mod in modules:
                    for name, val in list(vars(mod).items()):
                        if val is raw:
                            setattr(mod, name, wrapped)


def _lookup(module_name, path):
    """(owner, attribute) of a target, or None if thinlab does not define it there."""
    owner_name, _, attr = path.rpartition(".")
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


def _conv_opnorm_branch(args, kwargs):
    """Which branch of expander.conv_opnorm a call takes: dense up to its svd_cap argument."""
    expander = importlib.import_module("thinlab.expander")
    fn = getattr(expander.conv_opnorm, "__wrapped__", expander.conv_opnorm)
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    dense = bound.arguments["group"].order <= bound.arguments["svd_cap"]
    return "expander.conv_opnorm_dense" if dense else "expander.conv_opnorm_iter"


def _fiber_updates(args, kwargs, result):
    values = args[1] if len(args) > 1 else kwargs["values"]
    return {"fiber_updates": int(values.size)}


def _closure(args, kwargs, result):
    return {"closure_elements": int(result[1]["closure_size"])}


def _leaves(args, kwargs, result):
    return {"walk_leaves": int(result["n_words"])}


TARGETS = [
    ("thinlab.thermo", "critical_exponent", "thermo.critical_exponent", None),
    ("thinlab.thermo", "rpf_solve", "thermo.rpf_solve", None),
    ("thinlab.thermo", "ThermoLab.constants", "thermo.constants", None),
    ("thinlab.thermo", "ThermoLab.anchors", "thermo.cylinder_data", None),
    ("thinlab.thermo", "ThermoLab.cylinder_masses", "thermo.cylinder_data", None),
    ("thinlab.congruence", "CongruenceOperator.apply", "congruence.apply", _fiber_updates),
    ("thinlab.congruence", "CongruenceOperator.__init__", "congruence.operator_build", None),
    ("thinlab.congruence", "cf_lip", "congruence.cf_lip", None),
    ("thinlab.congruence", "GroupModQ.build", "congruence.group_build", None),
    ("thinlab.congruence", "GroupModQ.index_of", "congruence.index_of", None),
    ("thinlab.congruence", "GroupModQ.convolve_fn", "congruence.convolve_fn", None),
    ("thinlab.congruence", "NewSpaceDecomposition.__init__", "congruence.decomposition", None),
    ("thinlab.congruence", "NewSpaceDecomposition.project_new", "congruence.decomposition", None),
    ("thinlab.congruence", "NewSpaceDecomposition.average", "congruence.decomposition", None),
    ("thinlab.congruence", "NewSpaceDecomposition.proj_down", "congruence.decomposition", None),
    ("thinlab.expander", "detect_expansion", "expander.detect_expansion", None),
    ("thinlab.expander", "generates_full", "expander.generates_full", _closure),
    ("thinlab.expander", "cayley_gap", "expander.cayley_gap", None),
    ("thinlab.expander", "build_return_set", "expander.return_set", None),
    ("thinlab.expander", "build_measures", "expander.build_measures", _leaves),
    ("thinlab.expander", "transfer_apply_at", "expander.transfer_apply_at", None),
    ("thinlab.expander", "approx_transfer_check", "expander.approx_transfer_check", None),
    ("thinlab.expander", "conv_opnorm", _conv_opnorm_branch, None),
    ("thinlab.expander", "flattening_pipeline", "expander.flattening", None),
    ("thinlab.symbolic", "birkhoff", "symbolic.birkhoff", None),
    ("thinlab.decay", "decay_small_b", "decay.decay_small_b", None),
    ("thinlab.decay", "random_new_vector", "decay.random_new_vector", None),
]

# metric name -> (group, field): field is "busy", "self", "calls" or a counter
METRICS = {
    "thermo.critical_exponent_s": ("thermo.critical_exponent", "busy"),
    "thermo.rpf_solve_s": ("thermo.rpf_solve", "busy"),
    "thermo.constants_s": ("thermo.constants", "busy"),
    "thermo.cylinder_data_s": ("thermo.cylinder_data", "busy"),
    "congruence.apply_s": ("congruence.apply", "busy"),
    "congruence.apply_calls": ("congruence.apply", "calls"),
    "congruence.fiber_updates": ("congruence.apply", "fiber_updates"),
    "congruence.operator_build_s": ("congruence.operator_build", "busy"),
    "congruence.cf_lip_s": ("congruence.cf_lip", "busy"),
    "congruence.group_build_s": ("congruence.group_build", "busy"),
    "congruence.index_of_calls": ("congruence.index_of", "calls"),
    "congruence.convolve_fn_s": ("congruence.convolve_fn", "busy"),
    "congruence.convolve_fn_calls": ("congruence.convolve_fn", "calls"),
    "congruence.decomposition_s": ("congruence.decomposition", "busy"),
    "expander.detect_expansion_s": ("expander.detect_expansion", "self"),
    "expander.generates_full_s": ("expander.generates_full", "busy"),
    "expander.generates_full_calls": ("expander.generates_full", "calls"),
    "expander.closure_elements": ("expander.generates_full", "closure_elements"),
    "expander.cayley_gap_s": ("expander.cayley_gap", "self"),
    "expander.cayley_gap_calls": ("expander.cayley_gap", "calls"),
    "expander.return_set_s": ("expander.return_set", "busy"),
    "expander.build_measures_s": ("expander.build_measures", "busy"),
    "expander.build_measures_calls": ("expander.build_measures", "calls"),
    "expander.walk_leaves": ("expander.build_measures", "walk_leaves"),
    "expander.transfer_apply_at_s": ("expander.transfer_apply_at", "busy"),
    "expander.approx_check_self_s": ("expander.approx_transfer_check", "self"),
    "symbolic.birkhoff_s": ("symbolic.birkhoff", "busy"),
    "symbolic.birkhoff_calls": ("symbolic.birkhoff", "calls"),
    "expander.conv_opnorm_dense_s": ("expander.conv_opnorm_dense", "busy"),
    "expander.conv_opnorm_dense_calls": ("expander.conv_opnorm_dense", "calls"),
    "expander.conv_opnorm_iter_s": ("expander.conv_opnorm_iter", "busy"),
    "expander.conv_opnorm_iter_calls": ("expander.conv_opnorm_iter", "calls"),
    "expander.flattening_self_s": ("expander.flattening", "self"),
    "decay.decay_small_b_self_s": ("decay.decay_small_b", "self"),
    "decay.random_new_vector_s": ("decay.random_new_vector", "busy"),
}


def layer_metrics(tracer):
    """Every per-layer metric of one traced process, 0 for a layer that did not run."""
    out = {}
    for name, (group, field) in METRICS.items():
        grp = tracer.groups.get(group)
        if grp is None:
            out[name] = 0
        elif field == "busy":
            out[name] = grp.busy_s
        elif field == "self":
            out[name] = grp.self_s
        elif field == "calls":
            out[name] = grp.calls
        else:
            out[name] = grp.counters.get(field, 0)
    return out
