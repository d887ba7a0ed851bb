"""Surface ratchet: the option surface may only shrink on purpose.

Every config field and CLI flag is something to document, test and keep
working.  These counts pin today's surface, so growing it is a
deliberate edit of this file rather than a side effect.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect

import repro.cli
from repro.motivo import MotivoConfig

CONFIG_FIELDS = 18
CLI_ADD_ARGUMENT_CALLS = 84


def test_motivo_config_field_count():
    assert len(dataclasses.fields(MotivoConfig)) == CONFIG_FIELDS


def test_cli_add_argument_count():
    tree = ast.parse(inspect.getsource(repro.cli))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
    ]
    assert len(calls) == CLI_ADD_ARGUMENT_CALLS
