"""The package namespace: __all__ names every public object exactly once."""

import types

import redeiperm


def test_all_lists_every_public_name_once():
    public = {name for name, value in vars(redeiperm).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert len(redeiperm.__all__) == len(set(redeiperm.__all__))
    assert set(redeiperm.__all__) == public | {"__version__"}
    assert redeiperm.__version__
