import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / 'demos'

FAST_DEMOS = ['01_words_and_fox_calculus.py',
              '02_symmetric_powers.py',
              '03_twisted_invariants.py',
              '04_volume_table.py']


@pytest.mark.parametrize('name', FAST_DEMOS)
def test_demo_runs_clean(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name='__main__')
    out = capsys.readouterr().out
    assert 'False' not in out
    assert len(out.splitlines()) > 5


README = Path(__file__).parent.parent / 'README.md'


def test_readme_library_use_runs(capsys):
    """The README's "Library use" block runs and prints what it says."""
    section = README.read_text(encoding='utf-8').split('## Library use')[1]
    code = section.split('```python\n', 1)[1].split('```', 1)[0]
    exec(compile(code, 'README.md', 'exec'), {'__name__': '__main__'})
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert lines[0].startswith('[1,0]*t^5 + [-10,0]*t^4 + ')
    assert lines[1] == '[28,0]'
    assert lines[-1].split()[0] == '15'
