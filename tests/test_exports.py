"""Every name the package root exports resolves.

`from equiform import *` and the names listed in the README go through
`equiform.__all__`; a name left there after its definition is deleted
would fail only for the caller who imports it.
"""

import equiform


def test_every_exported_name_resolves():
    missing = [name for name in equiform.__all__ if not hasattr(equiform, name)]
    assert missing == []
    assert len(set(equiform.__all__)) == len(equiform.__all__)
