"""Builders for solc-style (modern, nodeType-based) AST JSON used by fixtures."""

from __future__ import annotations


def _src(span):
    return f"{span[0]}:{span[1]}:{span[2]}"


def source_unit(span, nodes):
    return {"nodeType": "SourceUnit", "src": _src(span), "nodes": nodes}


def contract(name, span, nodes):
    return {"nodeType": "ContractDefinition", "src": _src(span),
            "name": name, "nodes": nodes}


def state_var(name, type_string, span):
    return {"nodeType": "VariableDeclaration", "src": _src(span), "name": name,
            "stateVariable": True,
            "typeDescriptions": {"typeString": type_string}}


def parameter(name, type_string, span):
    return {"nodeType": "VariableDeclaration", "src": _src(span), "name": name,
            "stateVariable": False,
            "typeDescriptions": {"typeString": type_string}}


def function(name, visibility, params, statements, span, body_span,
             returns=None, selector=None):
    """``selector``: the int solc 0.8 writes, as 8 hex digits, on a
    public or external definition; pass the value the dispatcher pushes, so
    the two agree. None writes no field, as solc 0.4 does."""
    node = {
        "nodeType": "FunctionDefinition",
        "src": _src(span),
        "name": name,
        "visibility": visibility,
        "parameters": {"nodeType": "ParameterList", "src": _src(span),
                       "parameters": params},
        "returnParameters": {"nodeType": "ParameterList", "src": _src(span),
                             "parameters": returns or []},
        "body": {"nodeType": "Block", "src": _src(body_span),
                 "statements": statements},
    }
    if selector is not None:
        node["functionSelector"] = f"{selector:08x}"
    return node


def identifier(name, span):
    return {"nodeType": "Identifier", "src": _src(span), "name": name}


def emit_event(event_name, arg_names, span):
    return {
        "nodeType": "EmitStatement",
        "src": _src(span),
        "eventCall": {
            "nodeType": "FunctionCall",
            "src": _src(span),
            "expression": identifier(event_name, span),
            "arguments": [identifier(a, span) for a in arg_names],
        },
    }


def call(callee_name, span):
    return {
        "nodeType": "FunctionCall",
        "src": _src(span),
        "expression": identifier(callee_name, span),
        "arguments": [],
    }


def call_statement(callee_name, span):
    return {
        "nodeType": "ExpressionStatement",
        "src": _src(span),
        "expression": call(callee_name, span),
    }


def member_call_statement(member_name, base_name, arg_names, span):
    """``base_name.member_name(arg_names...);``"""
    return {
        "nodeType": "ExpressionStatement",
        "src": _src(span),
        "expression": {
            "nodeType": "FunctionCall",
            "src": _src(span),
            "expression": {"nodeType": "MemberAccess", "src": _src(span),
                           "memberName": member_name,
                           "expression": identifier(base_name, span)},
            "arguments": [identifier(a, span) for a in arg_names],
        },
    }


def return_statement(span, returned, ident_span=None):
    """``return returned;``: an identifier by name, or an expression node."""
    if isinstance(returned, str):
        returned = identifier(returned, ident_span or span)
    return {"nodeType": "Return", "src": _src(span), "expression": returned}


# the legacy form's names for modern attributes; "name" is renamed for an
# Identifier only
_LEGACY_NAMES = {"memberName": "member_name"}


def legacy(doc):
    """``doc``, a modern AST, in the ``name``/``attributes``/``children`` form
    solc before 0.5 writes (``ASTJsonConverter`` in legacy mode).

    An Identifier's name is its ``value``, a member access's name is
    ``member_name`` and a type string is ``type``. Children follow the
    fields' order, except that a call's expression precedes its arguments.
    """
    kind = doc["nodeType"]
    keys = list(doc)
    if kind == "FunctionCall":
        keys.sort(key=lambda key: key != "expression")  # stable: arguments keep their place
    attributes, children = {}, []
    for key in keys:
        value = doc[key]
        if key in ("nodeType", "src"):
            continue
        if key == "typeDescriptions":
            attributes["type"] = value.get("typeString")
        elif isinstance(value, dict) and "nodeType" in value:
            children.append(legacy(value))
        elif isinstance(value, list):
            children += [legacy(item) for item in value
                         if isinstance(item, dict) and "nodeType" in item]
        elif kind == "Identifier" and key == "name":
            attributes["value"] = value
        else:
            attributes[_LEGACY_NAMES.get(key, key)] = value
    return {"name": kind, "src": doc["src"], "attributes": attributes, "children": children}
