"""Every call the benchmark tracer wraps still exists in quantact.

``perfbench/tracer.py`` rebinds each (module, attribute) of its ``TARGETS``
list when a run is traced (``perfbench/run.py --trace 1``), so deleting or
renaming one of those names breaks traced runs.  Class attributes are looked
up in the class's own ``__dict__``, as ``Tracer.install`` does.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tracer_targets():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    missing = []
    for layer, path, _key, _keep in targets:
        module = importlib.import_module("quantact." + layer)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            found = isinstance(owner, type) and attr in owner.__dict__
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append("%s.%s" % (layer, path))
    assert targets and not missing, "tracer targets not found: %s" % ", ".join(missing)
