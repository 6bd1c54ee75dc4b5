"""Recursive-descent parser for Céu (grammar of Appendix A).

One liberty is taken relative to the paper's grammar, matching the paper's
own listings: the ``;`` statement terminator is treated as an optional
separator (the paper's examples write ``end`` with no trailing ``;``).

Operator precedence and associativity follow C, as the grammar demands.
"""

from __future__ import annotations

from array import array
from typing import Optional

from . import ast
from .errors import ParseError, SourceSpan
from .lexer import tokenize
from .tokens import TokKind, Token

# Binary precedence table, C-compatible (higher binds tighter).
_BINOP_PREC: dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_UNARY_OPS = ("!", "&", "-", "+", "~", "*")

#: keywords that terminate a block without being consumed by it
_BLOCK_ENDERS = ("end", "with", "else")


class Parser:
    def __init__(self, src: str, filename: str = "<ceu>",
                 tokens: Optional[list[Token]] = None):
        self.toks = tokenize(src, filename) if tokens is None else tokens
        self.idx = 0
        self.filename = filename
        #: per block (the program body included), keyed by ``id(block)``:
        #: the exact token-index range ``[start, end)`` the block
        #: consumed, then that of each of its statements, flat —
        #: ``[start, end, s0, e0, s1, e1, ...]``.  The incremental
        #: analyzer derives its damage-repair tree from these (plain
        #: statement spans only cover the first token for declarations).
        #: Integer arrays, so a parse leaves the garbage collector no
        #: object per statement to count; valid while the AST is alive.
        self.extents: dict[int, array] = {}

    # ----------------------------------------------------------- plumbing
    def _peek(self, ahead: int = 0) -> Token:
        i = min(self.idx + ahead, len(self.toks) - 1)
        return self.toks[i]

    def _next(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokKind.EOF:
            self.idx += 1
        return tok

    def _error(self, msg: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self._peek()
        return ParseError(f"{msg} (got {tok})", tok.span)

    def _expect_kw(self, word: str) -> Token:
        tok = self._peek()
        if not tok.is_kw(word):
            raise self._error(f"expected `{word}`")
        return self._next()

    def _expect_sym(self, sym: str) -> Token:
        tok = self._peek()
        if not tok.is_sym(sym):
            raise self._error(f"expected `{sym}`")
        return self._next()

    def _accept_sym(self, sym: str) -> bool:
        if self._peek().is_sym(sym):
            self._next()
            return True
        return False

    def _accept_kw(self, word: str) -> bool:
        if self._peek().is_kw(word):
            self._next()
            return True
        return False

    # --------------------------------------------------------------- entry
    def parse_program(self) -> ast.Program:
        body = self._parse_block(top=True)
        tok = self._peek()
        if tok.kind is not TokKind.EOF:
            raise self._error("unexpected trailing input")
        return ast.Program(body=body, filename=self.filename, span=body.span)

    # -------------------------------------------------------------- blocks
    def _parse_block(self, top: bool = False) -> ast.Block:
        stmts: list[ast.Stmt] = []
        start = self._peek().span
        extents = array("l", (self.idx, 0))
        while True:
            while self._accept_sym(";"):
                pass
            tok = self._peek()
            if tok.kind is TokKind.EOF:
                if not top:
                    raise self._error("unexpected end of input inside block")
                break
            if tok.is_kw(*_BLOCK_ENDERS):
                if top:
                    raise self._error(f"`{tok.text}` outside of a block")
                break
            extents.append(self.idx)
            stmts.append(self._parse_stmt())
            extents.append(self.idx)
        extents[1] = self.idx
        span = start if not stmts else stmts[0].span.merge(stmts[-1].span)
        block = ast.Block(stmts=stmts, span=span)
        self.extents[id(block)] = extents
        return block

    # ---------------------------------------------------------- statements
    def _parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind is TokKind.C_CODE:
            self._next()
            return ast.CBlockStmt(code=tok.value, span=tok.span)
        if tok.kind is TokKind.KEYWORD:
            word = tok.text
            if word == "nothing":
                self._next()
                return ast.Nothing(span=tok.span)
            if word in ("input", "output"):
                return self._parse_decl_event(word)
            if word == "internal":
                return self._parse_decl_event("internal")
            if word == "pure":
                return self._parse_annotation(ast.PureDecl)
            if word == "deterministic":
                return self._parse_annotation(ast.DeterministicDecl)
            if word == "await":
                return self._parse_await()
            if word == "emit":
                return self._parse_emit()
            if word == "if":
                return self._parse_if()
            if word == "loop":
                return self._parse_loop()
            if word == "break":
                self._next()
                return ast.Break(span=tok.span)
            if word in ("par", "par/or", "par/and"):
                return self._parse_par()
            if word == "do":
                return self._parse_do()
            if word == "async":
                return self._parse_async()
            if word == "return":
                return self._parse_return()
            if word == "call":
                self._next()
                exp = self._parse_exp()
                return ast.CallStmt(exp=exp, span=tok.span.merge(exp.span))
            raise self._error("unexpected keyword at statement position")
        if self._looks_like_decl():
            return self._parse_decl_var()
        # C call statement or assignment
        exp = self._parse_exp()
        if self._peek().is_sym("="):
            self._next()
            value = self._parse_setexp()
            return ast.Assign(target=exp, value=value,
                              span=tok.span.merge(value.span))
        if isinstance(exp, ast.CallExp):
            return ast.CCallStmt(call=exp, span=exp.span)
        raise self._error("expression statement must be a call or assignment",
                          tok)

    def _parse_decl_event(self, kind: str) -> ast.Stmt:
        start = self._next()  # keyword
        typ = self._parse_type()
        names: list[str] = []
        while True:
            tok = self._peek()
            if tok.kind not in (TokKind.ID_EXT, TokKind.ID_INT):
                raise self._error(f"expected event name in `{kind}` declaration")
            expect_ext = kind in ("input", "output")
            is_ext = tok.kind is TokKind.ID_EXT
            if expect_ext != is_ext:
                case = "uppercase" if expect_ext else "lowercase"
                raise self._error(
                    f"`{kind}` event `{tok.text}` must start with an "
                    f"{case} letter")
            names.append(self._next().text)
            if not self._accept_sym(","):
                break
        return ast.DeclEvent(kind=kind, type=typ, names=names,
                             span=start.span)

    def _parse_annotation(self, cls) -> ast.Stmt:
        start = self._next()
        names: list[str] = []
        while True:
            tok = self._peek()
            if tok.kind is not TokKind.ID_C:
                raise self._error("annotations expect C identifiers (`_f`)")
            names.append(self._next().text)
            if not self._accept_sym(","):
                break
        return cls(names=names, span=start.span)

    def _looks_like_decl(self) -> bool:
        """Decide `TYPE [*...] [\\[N\\]] name` vs an expression statement."""
        tok = self._peek()
        if tok.kind not in (TokKind.ID_INT, TokKind.ID_C):
            return False
        i = 1
        while self._peek(i).is_sym("*"):
            i += 1
        if self._peek(i).is_sym("["):
            # `int[10] keys` — scan past the bracketed size
            depth = 0
            while True:
                t = self._peek(i)
                if t.kind is TokKind.EOF:
                    return False
                if t.is_sym("["):
                    depth += 1
                elif t.is_sym("]"):
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
        return self._peek(i).kind is TokKind.ID_INT

    def _parse_type(self) -> ast.TypeRef:
        tok = self._peek()
        if tok.kind not in (TokKind.ID_INT, TokKind.ID_C):
            raise self._error("expected a type name")
        self._next()
        pointers = 0
        while self._peek().is_sym("*"):
            self._next()
            pointers += 1
        return ast.TypeRef(name=tok.text, pointers=pointers, span=tok.span)

    def _parse_decl_var(self) -> ast.Stmt:
        start = self._peek()
        typ = self._parse_type()
        array: Optional[ast.Exp] = None
        if self._accept_sym("["):
            array = self._parse_exp()
            self._expect_sym("]")
        decls: list[ast.Declarator] = []
        while True:
            name_tok = self._peek()
            if name_tok.kind is not TokKind.ID_INT:
                raise self._error("expected variable name")
            self._next()
            init: Optional[ast.Node] = None
            if self._accept_sym("="):
                init = self._parse_setexp()
            decls.append(ast.Declarator(name=name_tok.text, init=init,
                                        span=name_tok.span))
            if not self._accept_sym(","):
                break
        return ast.DeclVar(type=typ, array=array, decls=decls,
                           span=start.span)

    def _parse_await(self) -> ast.Stmt:
        start = self._expect_kw("await")
        tok = self._peek()
        if tok.is_kw("forever"):
            self._next()
            return ast.AwaitForever(span=start.span.merge(tok.span))
        if tok.kind is TokKind.ID_EXT:
            self._next()
            return ast.AwaitExt(event=tok.text,
                                span=start.span.merge(tok.span))
        if tok.kind is TokKind.ID_INT:
            self._next()
            return ast.AwaitInt(event=tok.text,
                                span=start.span.merge(tok.span))
        if tok.kind is TokKind.TIME:
            self._next()
            return ast.AwaitTime(time=tok.value,
                                 span=start.span.merge(tok.span))
        if tok.is_sym("("):
            self._next()
            exp = self._parse_exp()
            end = self._expect_sym(")")
            return ast.AwaitExp(exp=exp, span=start.span.merge(end.span))
        raise self._error("malformed await statement")

    def _parse_emit(self) -> ast.Stmt:
        start = self._expect_kw("emit")
        tok = self._peek()
        if tok.kind is TokKind.TIME:
            self._next()
            return ast.EmitTime(time=tok.value,
                                span=start.span.merge(tok.span))
        if tok.kind in (TokKind.ID_EXT, TokKind.ID_INT):
            self._next()
            value: Optional[ast.Exp] = None
            if self._accept_sym("="):
                value = self._parse_exp()
            cls = ast.EmitExt if tok.kind is TokKind.ID_EXT else ast.EmitInt
            return cls(event=tok.text, value=value,
                       span=start.span.merge(tok.span))
        raise self._error("malformed emit statement")

    def _parse_if(self) -> ast.Stmt:
        start = self._expect_kw("if")
        cond = self._parse_exp()
        self._expect_kw("then")
        then = self._parse_block()
        orelse: Optional[ast.Block] = None
        if self._accept_kw("else"):
            # note: no `else if` chain sugar — the Appendix-A grammar gives
            # `else` a full Block, so nested ifs need their own `end`
            orelse = self._parse_block()
        end = self._expect_kw("end")
        return ast.If(cond=cond, then=then, orelse=orelse,
                      span=start.span.merge(end.span))

    def _parse_loop(self) -> ast.Stmt:
        start = self._expect_kw("loop")
        self._expect_kw("do")
        body = self._parse_block()
        end = self._expect_kw("end")
        return ast.Loop(body=body, span=start.span.merge(end.span))

    def _parse_par(self) -> ast.Stmt:
        start = self._next()
        mode = {"par": "par", "par/or": "or", "par/and": "and"}[start.text]
        self._expect_kw("do")
        blocks = [self._parse_block()]
        while self._peek().is_kw("with"):
            self._next()
            blocks.append(self._parse_block())
        end = self._expect_kw("end")
        if len(blocks) < 2:
            raise ParseError("parallel statement needs at least two blocks",
                             start.span)
        return ast.ParStmt(mode=mode, blocks=blocks,
                           span=start.span.merge(end.span))

    def _parse_do(self) -> ast.Stmt:
        start = self._expect_kw("do")
        body = self._parse_block()
        end = self._expect_kw("end")
        return ast.DoBlock(body=body, span=start.span.merge(end.span))

    def _parse_async(self) -> ast.Stmt:
        start = self._expect_kw("async")
        self._expect_kw("do")
        body = self._parse_block()
        end = self._expect_kw("end")
        return ast.AsyncBlock(body=body, span=start.span.merge(end.span))

    def _parse_return(self) -> ast.Stmt:
        start = self._expect_kw("return")
        tok = self._peek()
        if (tok.is_sym(";") or tok.is_kw(*_BLOCK_ENDERS)
                or tok.kind is TokKind.EOF):
            return ast.Return(value=None, span=start.span)
        value = self._parse_exp()
        return ast.Return(value=value, span=start.span.merge(value.span))

    def _parse_setexp(self) -> ast.Node:
        tok = self._peek()
        if tok.is_kw("await"):
            return self._parse_await()
        if tok.is_kw("do"):
            return self._parse_do()
        if tok.is_kw("par", "par/or", "par/and"):
            return self._parse_par()
        if tok.is_kw("async"):
            return self._parse_async()
        return self._parse_exp()

    # --------------------------------------------------------- expressions
    def _parse_exp(self, min_prec: int = 1) -> ast.Exp:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            if tok.kind is not TokKind.SYM:
                return left
            prec = _BINOP_PREC.get(tok.text)
            if prec is None or prec < min_prec:
                return left
            self._next()
            right = self._parse_exp(prec + 1)
            left = ast.Binop(op=tok.text, left=left, right=right,
                             span=left.span.merge(right.span))

    def _parse_unary(self) -> ast.Exp:
        tok = self._peek()
        if tok.is_kw("sizeof"):
            self._next()
            self._expect_sym("<")
            typ = self._parse_type()
            end = self._expect_sym(">")
            return ast.SizeOf(type=typ, span=tok.span.merge(end.span))
        if tok.is_sym("<") and self._is_cast():
            self._next()
            typ = self._parse_type()
            self._expect_sym(">")
            operand = self._parse_unary()
            return ast.Cast(type=typ, operand=operand,
                            span=tok.span.merge(operand.span))
        if tok.kind is TokKind.SYM and tok.text in _UNARY_OPS:
            self._next()
            operand = self._parse_unary()
            return ast.Unop(op=tok.text, operand=operand,
                            span=tok.span.merge(operand.span))
        return self._parse_postfix()

    def _is_cast(self) -> bool:
        """Disambiguate `<type> exp` casts from `<` comparisons: a cast is
        `<` ID `*`* `>` at prefix position."""
        if self._peek(1).kind not in (TokKind.ID_INT, TokKind.ID_C):
            return False
        i = 2
        while self._peek(i).is_sym("*"):
            i += 1
        return self._peek(i).is_sym(">")

    def _parse_postfix(self) -> ast.Exp:
        exp = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_sym("["):
                self._next()
                idx = self._parse_exp()
                end = self._expect_sym("]")
                exp = ast.Index(base=exp, index=idx,
                                span=exp.span.merge(end.span))
            elif tok.is_sym("("):
                self._next()
                args: list[ast.Exp] = []
                if not self._peek().is_sym(")"):
                    args.append(self._parse_exp())
                    while self._accept_sym(","):
                        args.append(self._parse_exp())
                end = self._expect_sym(")")
                exp = ast.CallExp(func=exp, args=args,
                                  span=exp.span.merge(end.span))
            elif tok.is_sym(".", "->"):
                self._next()
                name_tok = self._next()
                if name_tok.kind not in (TokKind.ID_INT, TokKind.ID_EXT,
                                         TokKind.ID_C):
                    raise self._error("expected field name", name_tok)
                exp = ast.FieldAccess(base=exp, name=name_tok.text,
                                      arrow=tok.text == "->",
                                      span=exp.span.merge(name_tok.span))
            else:
                return exp

    def _parse_primary(self) -> ast.Exp:
        tok = self._next()
        if tok.kind is TokKind.NUM:
            return ast.Num(value=tok.value, span=tok.span)
        if tok.kind is TokKind.STRING:
            return ast.Str(value=tok.value, span=tok.span)
        if tok.is_kw("null"):
            return ast.Null(span=tok.span)
        if tok.kind is TokKind.ID_INT:
            return ast.NameInt(name=tok.text, span=tok.span)
        if tok.kind is TokKind.ID_C:
            return ast.NameC(name=tok.text, span=tok.span)
        if tok.is_sym("("):
            exp = self._parse_exp()
            self._expect_sym(")")
            return exp
        raise self._error("expected an expression", tok)


def parse(src: str, filename: str = "<ceu>") -> ast.Program:
    """Parse Céu source text into a :class:`repro.lang.ast.Program`."""
    return Parser(src, filename).parse_program()


def parse_expression(src: str) -> ast.Exp:
    """Parse a standalone expression (used by tests and tools)."""
    parser = Parser(src, "<exp>")
    exp = parser._parse_exp()
    if parser._peek().kind is not TokKind.EOF:
        raise parser._error("unexpected trailing input after expression")
    return exp
