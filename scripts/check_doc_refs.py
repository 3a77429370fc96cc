#!/usr/bin/env python3
"""Check that the names the current-state docs cite exist in the tree.

Usage: check_doc_refs.py

Scans README.md, DESIGN.md and .claude/skills/verify/SKILL.md and fails
if any of these does not resolve:

* a `--bin`, `--test`, `--bench` or `--example` argument: a
  `src/bin/*.rs` or a package's `src/main.rs` (bins), a `tests/*.rs`
  (tests), a `benches/*.rs` (benches), in any package of the repo, or an
  `examples/*.rs` (examples);
* a name in the first column of README's example table: an
  `examples/*.rs`;
* a "`X` bin" mention: the same bin names;
* a `BENCH_*.json` name: a snapshot checked in at the repo root;
* a backticked path with a file extension (`tests/lossless.rs`,
  `stack.rs:1483`, `tests/{a,b}.rs`): some file in the repo whose path
  is that path or ends with it, after a `:line` suffix is dropped and
  `{a,b}` alternatives are expanded;
* a backticked Rust path whose first segment is a workspace crate
  (`core::sequent`, `crates/stack::timer`, `tcpdemux_wire::Payload`,
  `stack::Stack::{listen,accept}`): its second segment is a module file
  `crates/<crate>/src/<module>.rs` or an item the crate defines, and
  every later segment is a module file under that one or an item, field
  or variant the crate defines. Generic arguments and call parentheses
  after the path are ignored;
* a backticked path that starts at a type (`Stack::receive`,
  `SocketBuffer::read_into`, `Option<Conn>`): a CamelCase first segment
  is a type, trait or variant some `.rs` file in the repo defines, and
  every later segment an item, field or variant some file defines.
  Names from the standard library (`Arc`, `HashMap`, `VecDeque`, ...)
  are allowed as they stand, with whatever follows them.

EXPERIMENTS.md, ROADMAP.md and CHANGES.md are left out on purpose: they
record what was measured, deleted or planned, so they name bins,
snapshots and files that no longer exist, or do not exist yet.

Exits nonzero with one line per unresolved name. Stdlib only.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"]
SKIP_DIRS = {".git", "target", "out"}
EXTENSIONS = ("rs", "md", "toml", "json", "jsonl", "txt", "py", "sh", "lock")

CARGO_ARG = re.compile(r"--(bin|test|bench|example)[ =]+([A-Za-z0-9_\-]+)")
BIN_MENTION = re.compile(r"`([A-Za-z0-9_\-]+)` bin\b")
SNAPSHOT = re.compile(r"\bBENCH_[A-Za-z0-9_]+\.json\b")
BACKTICKED = re.compile(r"`([^`\s]+)`")
PATH_LIKE = re.compile(r"^[A-Za-z0-9_./{},*\-]+\.(?:%s)$" % "|".join(EXTENSIONS))
BRACES = re.compile(r"\{([^{}]*)\}")
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
CRATES = sorted(p.name for p in (REPO_ROOT / "crates").iterdir() if (p / "src").is_dir())
CRATE_PATH = re.compile(
    r"^(?:crates/)?(?:tcpdemux_)?(%s)::(%s(?:::(?:%s|\{[^{}`]*\}))*)"
    % ("|".join(CRATES), IDENT, IDENT)
)
BACKTICKED_ANY = re.compile(r"`([^`\n]+)`")
# What a crate defines: items by keyword, and (loosely) the fields and
# variants that open a line.
ITEM_DEF = re.compile(
    r"\b(?:fn|struct|enum|trait|type|const|static|mod|union)\s+(%s)" % IDENT
)
MEMBER_DEF = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?(%s)\s*(?:[:,({]|$)" % IDENT, re.M)
TYPE_PATH = re.compile(
    r"^([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)((?:::%s)*)(?:$|[<({\[ ])" % IDENT
)
STD_NAMES = frozenset(
    """
    Arc AtomicBool AtomicU32 AtomicU64 AtomicUsize BTreeMap BTreeSet Box
    Cell Condvar Copy Debug Default Display Duration Err Fn FnMut FnOnce
    HashMap HashSet Instant Ipv4Addr Iterator Mutex None Ok Option
    Ordering PhantomData PoisonError Range RefCell Result RwLock Send
    Some String Sync Vec VecDeque
    """.split()
)
EXAMPLE_TABLE = re.compile(r"^\|\s*example\s*\|.*\n(?:\|.*\n)*", re.M | re.I)
EXAMPLE_ROW = re.compile(r"^\|\s*`([A-Za-z0-9_\-]+)`", re.M)


def repo_files():
    files = []
    stack = [REPO_ROOT]
    while stack:
        d = stack.pop()
        for p in d.iterdir():
            if p.is_dir():
                if p.name not in SKIP_DIRS:
                    stack.append(p)
            else:
                files.append(p.relative_to(REPO_ROOT).as_posix())
    return files


def target_names(files):
    bins, tests, benches, examples = set(), set(), set(), set()
    for f in files:
        parts = f.split("/")
        stem = parts[-1][: -len(".rs")] if f.endswith(".rs") else None
        if stem is None:
            continue
        if len(parts) >= 3 and parts[-3:-1] == ["src", "bin"]:
            bins.add(stem)
        elif parts[-2:] == ["src", "main.rs"]:
            manifest = REPO_ROOT.joinpath(*parts[:-2], "Cargo.toml")
            m = re.search(r'^name\s*=\s*"([^"]+)"', manifest.read_text(), re.M)
            if m:
                bins.add(m.group(1))
        elif len(parts) >= 2 and parts[-2] == "tests":
            tests.add(stem)
        elif len(parts) >= 2 and parts[-2] == "benches":
            benches.add(stem)
        elif len(parts) == 2 and parts[0] == "examples":
            examples.add(stem)
    return {"bin": bins, "test": tests, "bench": benches, "example": examples}


def crate_names():
    """Per workspace crate: every name its sources define."""
    names = {}
    for crate in CRATES:
        defined = set()
        for f in (REPO_ROOT / "crates" / crate / "src").rglob("*.rs"):
            text = f.read_text(encoding="utf-8")
            defined.update(ITEM_DEF.findall(text))
            defined.update(MEMBER_DEF.findall(text))
        names[crate] = defined
    return names


def repo_names(files):
    """Every name any `.rs` file in the repo defines."""
    defined = set()
    for f in files:
        if f.endswith(".rs"):
            text = (REPO_ROOT / f).read_text(encoding="utf-8")
            defined.update(ITEM_DEF.findall(text))
            defined.update(MEMBER_DEF.findall(text))
    return defined


def crate_path_resolves(crate, segments, defined):
    module = REPO_ROOT / "crates" / crate / "src"
    for seg in segments:
        if module is not None and (
            (module / f"{seg}.rs").is_file() or (module / seg / "mod.rs").is_file()
        ):
            module = module / seg
            continue
        if seg not in defined:
            return False
        module = None
    return True


def expand(token):
    m = BRACES.search(token)
    if not m:
        return [token]
    head, tail = token[: m.start()], token[m.end() :]
    return [x for alt in m.group(1).split(",") for x in expand(head + alt.strip() + tail)]


def path_resolves(path, files):
    path = path.removeprefix("./")
    if "*" in path:
        return any(REPO_ROOT.glob(path))
    return any(f == path or f.endswith("/" + path) for f in files)


def check(doc, text, files, targets, defined, anywhere):
    errors = []
    for kind, name in CARGO_ARG.findall(text):
        if name not in targets[kind]:
            errors.append(f"{doc}: --{kind} {name}: no such {kind} target")
    for table in EXAMPLE_TABLE.findall(text):
        for name in EXAMPLE_ROW.findall(table):
            if name not in targets["example"]:
                errors.append(f"{doc}: example `{name}`: no such examples/{name}.rs")
    for token in BACKTICKED_ANY.findall(text):
        m = CRATE_PATH.match(token.replace(" ", ""))
        if m:
            crate = m.group(1)
            for path in expand(m.group(2)):
                if not crate_path_resolves(crate, path.split("::"), defined[crate]):
                    errors.append(
                        f"{doc}: `{crate}::{path}`: no such module or item in crates/{crate}"
                    )
        m = TYPE_PATH.match(token)
        if m and m.group(1) not in STD_NAMES:
            segments = [m.group(1)] + m.group(2).split("::")[1:]
            missing = [seg for seg in segments if seg not in anywhere]
            if missing:
                errors.append(f"{doc}: `{token}`: {', '.join(missing)} defined nowhere in the repo")
    for name in BIN_MENTION.findall(text):
        if name not in targets["bin"]:
            errors.append(f"{doc}: `{name}` bin: no such bin target")
    for name in sorted(set(SNAPSHOT.findall(text))):
        if not (REPO_ROOT / name).is_file():
            errors.append(f"{doc}: {name}: no such snapshot at the repo root")
    for token in BACKTICKED.findall(text):
        token = re.sub(r":[0-9][0-9,–\-]*$", "", token)
        if "://" in token or not PATH_LIKE.match(token):
            continue
        for path in expand(token):
            if not path_resolves(path, files):
                errors.append(f"{doc}: `{path}`: no such file in the repo")
    return errors


def main():
    files = repo_files()
    targets = target_names(files)
    defined = crate_names()
    anywhere = repo_names(files)
    errors = []
    for doc in DOCS:
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        errors.extend(check(doc, text, files, targets, defined, anywhere))
    # A `BENCH_*.json` in backticks is reported as a snapshot and a path.
    errors = list(dict.fromkeys(errors))
    if errors:
        for e in errors:
            print(f"check_doc_refs: {e}", file=sys.stderr)
        sys.exit(1)
    print(
        f"check_doc_refs: {len(DOCS)} docs, every cited bin, test, example, snapshot, "
        "path and crate path resolves"
    )


if __name__ == "__main__":
    main()
