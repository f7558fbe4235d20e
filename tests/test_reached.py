import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "reached", Path(__file__).resolve().parent.parent / "tools" / "reached.py"
)
reached = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reached)

SOURCE = '''\
def plain():
    return 1


@same
@same
def decorated():
    def inner():
        return 2
    return inner


class Box:
    def method(self):
        pass
'''


def _tree(tmp_path):
    package = tmp_path / "src" / "green3"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(SOURCE, encoding="utf-8")
    return tmp_path


def test_functions_key_each_def_by_the_line_its_code_object_names(tmp_path):
    path = _tree(tmp_path) / "src" / "green3" / "mod.py"
    found = reached.functions(path)
    assert found == [("plain", 1, 2), ("decorated", 5, 6), ("decorated.inner", 8, 2),
                     ("Box.method", 14, 2)]
    # the profiler records co_firstlineno, which is the first decorator's line
    namespace = {"same": lambda f: f}
    exec(compile(SOURCE, str(path), "exec"), namespace)
    codes = {"plain": namespace["plain"].__code__,
             "decorated": namespace["decorated"].__code__,
             "decorated.inner": namespace["decorated"]().__code__,
             "Box.method": namespace["Box"].method.__code__}
    assert [(name, codes[name].co_firstlineno) for name, _, _ in found] == \
        [(name, first) for name, first, _ in found]


def test_never_entered_lists_only_the_outermost_missed_function(tmp_path):
    tree = _tree(tmp_path)
    assert reached.never_entered(tree, {("mod", 1)}) == {
        "mod": [("decorated", 6), ("Box.method", 2)]
    }
    assert reached.never_entered(tree, {("mod", 1), ("mod", 5), ("mod", 14)}) == {
        "mod": [("decorated.inner", 2)]
    }
