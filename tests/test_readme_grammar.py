"""README's grammar block against the section table it documents.

The block is rendered here from `dsl._SECTIONS` and the kinds of field token
in `dsl._KINDS`, so a grammar change that leaves the README as it was fails.
"""

from __future__ import annotations

import re
from pathlib import Path

from pppm import dsl

README = Path(__file__).resolve().parent.parent / "README.md"

# The rule of each field kind but the two the README defines in prose,
# `ident` and `string`, and the flag, which is no token.
KIND_RULES = {
    "ids": 'ident { "," ident } ;',
    "yes_no": '"yes" | "no" ;',
    "condition": "string ;  (* its text is a condition *)",
}


def _tokens(tokens: tuple[str, ...]) -> str:
    return " ".join(token if token in dsl._KINDS else f'"{token.strip(chr(39))}"'
                    for token in tokens)


def _trailer(trailer) -> str:
    """`[ ... ]`, its lead in parentheses where it is not all of it."""
    if not trailer.rest:
        return f"[ {_tokens(trailer.lead)} ]"
    return f"[ ( {_tokens(trailer.lead)} ) {_tokens(trailer.rest)} ]"


def render() -> str:
    lines = ['policy = "policy" string { section } ;']
    line = "section ="
    for i, section in enumerate(dsl._SECTIONS):
        word = (" | " if i else " ") + section.keyword
        if len(line + word) > 78:
            lines.append(line)
            line = "   "
        line += word
    lines.append(line + " ;")
    for section in dsl._SECTIONS:
        line = f'{section.keyword} = "{section.keyword}" "{{" {{ {_tokens(section.shape)}'
        if section.trailers:
            lines.append(line)
            line = "    " + " ".join(map(_trailer, section.trailers))
        lines.append(line + ' } "}" ;')
    lines += [f"{kind} = {rule}" for kind, rule in KIND_RULES.items()]
    return "\n".join(lines) + "\n"


def test_every_field_kind_has_a_rule():
    assert set(KIND_RULES) == set(dsl._KINDS) - {"ident", "string", "flag"}


def test_the_readme_grammar_is_the_section_tables():
    (block,) = re.findall(r"```ebnf\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block == render()
