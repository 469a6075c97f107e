//! GuestScript: a tiny interpreted language for staged programs.
//!
//! The paper's `exec` call runs *staged executables*. Registered host
//! functions cover compiled programs; GuestScript covers the other
//! half — programs whose code really travels over the wire as file
//! content. A script is a text file whose first line is
//! `#!guestscript`; every subsequent line is one command executed
//! against the guest syscall interface, so the identity box's ACL
//! checks apply to each operation exactly as for any other program.
//!
//! ```text
//! #!guestscript
//! # simulate: read input, burn compute, write a result
//! read input.dat
//! checksum
//! compute 20000
//! write out.dat result=$SUM
//! echo finished
//! exit 0
//! ```
//!
//! Commands (one per line, `#` comments):
//!
//! | command | effect |
//! |---|---|
//! | `read <path>` | load file into the data register |
//! | `write <path> <words...>` | write words (with `$VAR` expansion) |
//! | `append <path> <words...>` | append words |
//! | `copy <src> <dst>` | copy a file |
//! | `mkdir <path>` / `rmdir <path>` / `unlink <path>` | namespace ops |
//! | `stat <path>` | set `$SIZE` to the file size |
//! | `checksum` | set `$SUM` to an FNV-1a digest of the data register |
//! | `compute <units>` | burn ALU work |
//! | `set <VAR> <value>` / `add <VAR> <n>` | integer registers |
//! | `repeat <n>` ... `end` | loop a block (nestable) |
//! | `echo <words...>` | append a line to the captured output |
//! | `assert-exists <path>` / `assert-denied <path>` | checks |
//! | `exit <code>` | stop with a code |

use crate::compute::compute;
use idbox_interpose::GuestCtx;
use idbox_types::Errno;
use std::collections::BTreeMap;
use std::fmt;

/// The interpreter's shebang line.
pub const SHEBANG: &str = "#!guestscript";

/// Result of a script run: exit code plus captured `echo` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptResult {
    /// The script's exit code (0 unless `exit` says otherwise or a
    /// command fails).
    pub code: i32,
    /// Lines produced by `echo`.
    pub output: String,
}

/// Script parse/run errors (turned into nonzero exit codes by
/// [`run_script`], but useful for diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptError {
    /// Missing `#!guestscript` first line.
    NotAScript,
    /// Unknown command.
    UnknownCommand(String),
    /// Wrong arguments for a command.
    BadArguments(String),
    /// `end` without `repeat` or an unclosed `repeat`.
    UnbalancedRepeat,
    /// A guest operation failed.
    Sys(String, Errno),
    /// An assertion failed.
    AssertionFailed(String),
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::NotAScript => write!(f, "missing {SHEBANG} shebang"),
            ScriptError::UnknownCommand(c) => write!(f, "unknown command {c:?}"),
            ScriptError::BadArguments(l) => write!(f, "bad arguments: {l}"),
            ScriptError::UnbalancedRepeat => write!(f, "unbalanced repeat/end"),
            ScriptError::Sys(op, e) => write!(f, "{op}: {e}"),
            ScriptError::AssertionFailed(m) => write!(f, "assertion failed: {m}"),
        }
    }
}

impl std::error::Error for ScriptError {}

/// True when `image` looks like a GuestScript program.
pub fn is_script(image: &[u8]) -> bool {
    image.starts_with(SHEBANG.as_bytes())
}

/// Interpreter state.
struct Interp<'a, 'b> {
    ctx: &'a mut GuestCtx<'b>,
    vars: BTreeMap<String, i64>,
    data: Vec<u8>,
    output: String,
    steps: u64,
}

/// Upper bound on executed commands: scripts terminate.
const MAX_STEPS: u64 = 1_000_000;

impl Interp<'_, '_> {
    fn expand(&self, word: &str) -> String {
        if let Some(name) = word.strip_prefix('$') {
            if let Some(v) = self.vars.get(name) {
                return v.to_string();
            }
        }
        // Inline expansion of $VAR occurrences inside the word.
        let mut out = String::new();
        let mut chars = word.chars().peekable();
        while let Some(c) = chars.next() {
            if c == '$' {
                let mut name = String::new();
                while let Some(&n) = chars.peek() {
                    if n.is_ascii_alphanumeric() || n == '_' {
                        name.push(n);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if let Some(v) = self.vars.get(&name) {
                    out.push_str(&v.to_string());
                } else {
                    out.push('$');
                    out.push_str(&name);
                }
            } else {
                out.push(c);
            }
        }
        out
    }

    fn expand_all(&self, words: &[&str]) -> String {
        words
            .iter()
            .map(|w| self.expand(w))
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn run_block(&mut self, lines: &[&str]) -> Result<Option<i32>, ScriptError> {
        let mut i = 0;
        while i < lines.len() {
            self.steps += 1;
            if self.steps > MAX_STEPS {
                return Err(ScriptError::BadArguments("step limit exceeded".into()));
            }
            let line = lines[i].trim();
            i += 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            let (cmd, args) = words.split_first().expect("non-empty line");
            match *cmd {
                "repeat" => {
                    let [count] = args else {
                        return Err(ScriptError::BadArguments(line.into()));
                    };
                    let count: u64 = self
                        .expand(count)
                        .parse()
                        .map_err(|_| ScriptError::BadArguments(line.into()))?;
                    // Find the matching `end` (nesting-aware).
                    let mut depth = 1;
                    let mut j = i;
                    while j < lines.len() {
                        let w = lines[j].trim();
                        if w.starts_with("repeat") {
                            depth += 1;
                        } else if w == "end" {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    if depth != 0 {
                        return Err(ScriptError::UnbalancedRepeat);
                    }
                    let body = &lines[i..j];
                    for _ in 0..count {
                        if let Some(code) = self.run_block(body)? {
                            return Ok(Some(code));
                        }
                    }
                    i = j + 1;
                }
                "end" => return Err(ScriptError::UnbalancedRepeat),
                "exit" => {
                    let code = args
                        .first()
                        .map(|w| self.expand(w))
                        .unwrap_or_else(|| "0".into())
                        .parse()
                        .map_err(|_| ScriptError::BadArguments(line.into()))?;
                    return Ok(Some(code));
                }
                _ => {
                    if let Some(code) = self.step(cmd, args, line)? {
                        return Ok(Some(code));
                    }
                }
            }
        }
        Ok(None)
    }

    fn step(
        &mut self,
        cmd: &str,
        args: &[&str],
        line: &str,
    ) -> Result<Option<i32>, ScriptError> {
        let sys = |op: &str, e: Errno| ScriptError::Sys(op.to_string(), e);
        match cmd {
            "read" => {
                let [path] = args else {
                    return Err(ScriptError::BadArguments(line.into()));
                };
                let path = self.expand(path);
                self.data = self.ctx.read_file(&path).map_err(|e| sys("read", e))?;
            }
            "write" | "append" => {
                let Some((path, rest)) = args.split_first() else {
                    return Err(ScriptError::BadArguments(line.into()));
                };
                let path = self.expand(path);
                let mut content = self.expand_all(rest);
                content.push('\n');
                if cmd == "write" {
                    self.ctx
                        .write_file(&path, content.as_bytes())
                        .map_err(|e| sys("write", e))?;
                } else {
                    use idbox_kernel::OpenFlags;
                    let fd = self
                        .ctx
                        .open(&path, OpenFlags::append_create(), 0o644)
                        .map_err(|e| sys("append", e))?;
                    let r = self.ctx.write(fd, content.as_bytes());
                    let _ = self.ctx.close(fd);
                    r.map_err(|e| sys("append", e))?;
                }
            }
            "copy" => {
                let [src, dst] = args else {
                    return Err(ScriptError::BadArguments(line.into()));
                };
                let (src, dst) = (self.expand(src), self.expand(dst));
                let data = self.ctx.read_file(&src).map_err(|e| sys("copy", e))?;
                self.ctx.write_file(&dst, &data).map_err(|e| sys("copy", e))?;
            }
            "mkdir" | "rmdir" | "unlink" => {
                let [path] = args else {
                    return Err(ScriptError::BadArguments(line.into()));
                };
                let path = self.expand(path);
                let r = match cmd {
                    "mkdir" => self.ctx.mkdir(&path, 0o755),
                    "rmdir" => self.ctx.rmdir(&path),
                    _ => self.ctx.unlink(&path),
                };
                r.map_err(|e| sys(cmd, e))?;
            }
            "stat" => {
                let [path] = args else {
                    return Err(ScriptError::BadArguments(line.into()));
                };
                let path = self.expand(path);
                let st = self.ctx.stat(&path).map_err(|e| sys("stat", e))?;
                self.vars.insert("SIZE".into(), st.size as i64);
            }
            "checksum" => {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for &b in &self.data {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
                self.vars.insert("SUM".into(), (h & 0x7fff_ffff_ffff_ffff) as i64);
            }
            "compute" => {
                let [units] = args else {
                    return Err(ScriptError::BadArguments(line.into()));
                };
                let units: u64 = self
                    .expand(units)
                    .parse()
                    .map_err(|_| ScriptError::BadArguments(line.into()))?;
                compute(units.min(100_000_000));
            }
            "set" => {
                let [var, value] = args else {
                    return Err(ScriptError::BadArguments(line.into()));
                };
                let value: i64 = self
                    .expand(value)
                    .parse()
                    .map_err(|_| ScriptError::BadArguments(line.into()))?;
                self.vars.insert(var.to_string(), value);
            }
            "add" => {
                let [var, delta] = args else {
                    return Err(ScriptError::BadArguments(line.into()));
                };
                let delta: i64 = self
                    .expand(delta)
                    .parse()
                    .map_err(|_| ScriptError::BadArguments(line.into()))?;
                *self.vars.entry(var.to_string()).or_insert(0) += delta;
            }
            "echo" => {
                let text = self.expand_all(args);
                self.output.push_str(&text);
                self.output.push('\n');
            }
            "assert-exists" => {
                let [path] = args else {
                    return Err(ScriptError::BadArguments(line.into()));
                };
                let path = self.expand(path);
                if self.ctx.stat(&path).is_err() {
                    return Err(ScriptError::AssertionFailed(format!(
                        "{path} does not exist"
                    )));
                }
            }
            "assert-denied" => {
                let [path] = args else {
                    return Err(ScriptError::BadArguments(line.into()));
                };
                let path = self.expand(path);
                match self.ctx.read_file(&path) {
                    Err(Errno::EACCES) => {}
                    other => {
                        return Err(ScriptError::AssertionFailed(format!(
                            "{path}: expected EACCES, got {other:?}"
                        )))
                    }
                }
            }
            other => return Err(ScriptError::UnknownCommand(other.to_string())),
        }
        Ok(None)
    }
}

/// Parse and run a script image against the guest interface. Returns the
/// exit code and the `echo` output; script errors become exit code 1
/// with the error message appended to the output.
pub fn run_script(ctx: &mut GuestCtx<'_>, image: &[u8]) -> ScriptResult {
    let Ok(text) = std::str::from_utf8(image) else {
        return ScriptResult {
            code: 1,
            output: "script: not utf-8\n".to_string(),
        };
    };
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(SHEBANG) {
        return ScriptResult {
            code: 1,
            output: format!("script: {}\n", ScriptError::NotAScript),
        };
    }
    let body: Vec<&str> = lines.collect();
    let mut interp = Interp {
        ctx,
        vars: BTreeMap::new(),
        data: Vec::new(),
        output: String::new(),
        steps: 0,
    };
    match interp.run_block(&body) {
        Ok(code) => ScriptResult {
            code: code.unwrap_or(0),
            output: interp.output,
        },
        Err(e) => {
            let mut output = interp.output;
            output.push_str(&format!("script error: {e}\n"));
            ScriptResult { code: 1, output }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_interpose::{share, Supervisor};
    use idbox_kernel::Kernel;
    use idbox_vfs::Cred;

    fn ctx_run(script: &str) -> (ScriptResult, idbox_interpose::SharedKernel) {
        let kernel = share(Kernel::new());
        let pid = kernel.spawn(Cred::ROOT, "/tmp", "script").unwrap();
        let mut sup = Supervisor::direct(kernel.clone());
        let mut ctx = GuestCtx::new(&mut sup, pid);
        let r = run_script(&mut ctx, script.as_bytes());
        (r, kernel)
    }

    #[test]
    fn hello_world() {
        let (r, _) = ctx_run("#!guestscript\necho hello world\nexit 0\n");
        assert_eq!(r.code, 0);
        assert_eq!(r.output, "hello world\n");
    }

    #[test]
    fn shebang_required() {
        let (r, _) = ctx_run("echo nope\n");
        assert_eq!(r.code, 1);
        assert!(r.output.contains("shebang"));
    }

    #[test]
    fn file_roundtrip_and_stat() {
        let (r, _) = ctx_run(
            "#!guestscript\n\
             write data.txt some payload\n\
             read data.txt\n\
             checksum\n\
             stat data.txt\n\
             echo size=$SIZE sum=$SUM\n",
        );
        assert_eq!(r.code, 0);
        assert!(r.output.starts_with("size=13 sum="), "{}", r.output);
    }

    #[test]
    fn variables_and_loops() {
        let (r, _) = ctx_run(
            "#!guestscript\n\
             set N 0\n\
             repeat 5\n\
             add N 2\n\
             end\n\
             echo n=$N\n",
        );
        assert_eq!(r.code, 0);
        assert_eq!(r.output, "n=10\n");
    }

    #[test]
    fn nested_loops() {
        let (r, _) = ctx_run(
            "#!guestscript\n\
             set N 0\n\
             repeat 3\n\
             repeat 4\n\
             add N 1\n\
             end\n\
             end\n\
             echo $N\n",
        );
        assert_eq!(r.output, "12\n");
    }

    #[test]
    fn exit_inside_loop_stops_everything() {
        let (r, _) = ctx_run(
            "#!guestscript\n\
             repeat 100\n\
             exit 7\n\
             end\n\
             echo unreachable\n",
        );
        assert_eq!(r.code, 7);
        assert!(!r.output.contains("unreachable"));
    }

    #[test]
    fn namespace_commands() {
        let (r, kernel) = ctx_run(
            "#!guestscript\n\
             mkdir work\n\
             write work/a.txt first\n\
             copy work/a.txt work/b.txt\n\
             unlink work/a.txt\n\
             assert-exists work/b.txt\n\
             append work/b.txt second\n",
        );
        assert_eq!(r.code, 0, "{}", r.output);
        let k = &*kernel;
        let root = k.vfs().root();
        let b = k.vfs().read_file(root, "/tmp/work/b.txt", &Cred::ROOT).unwrap();
        assert_eq!(b, b"first\nsecond\n");
        assert!(k.vfs().stat(root, "/tmp/work/a.txt", true, &Cred::ROOT).is_err());
    }

    #[test]
    fn failures_surface_as_exit_1() {
        let (r, _) = ctx_run("#!guestscript\nread /no/such/file\n");
        assert_eq!(r.code, 1);
        assert!(r.output.contains("ENOENT"), "{}", r.output);
        let (r, _) = ctx_run("#!guestscript\nfrobnicate\n");
        assert_eq!(r.code, 1);
        assert!(r.output.contains("unknown command"));
        let (r, _) = ctx_run("#!guestscript\nrepeat 3\necho x\n");
        assert_eq!(r.code, 1);
        assert!(r.output.contains("unbalanced"));
    }

    #[test]
    fn assert_denied_checks_acls() {
        // Run under an identity box: the supervisor's private file is
        // denied, and the script can observe that.
        let mut k = Kernel::new();
        k.accounts_mut()
            .add(idbox_kernel::Account::new("op", 1000, 1000))
            .unwrap();
        {
            let root = k.vfs().root();
            k.vfs().mkdir(root, "/home/op", 0o700, &Cred::ROOT).unwrap();
            k.vfs().chown(root, "/home/op", 1000, 1000, &Cred::ROOT).unwrap();
            k.vfs()
                .write_file(root, "/home/op/secret", b"x", &Cred::new(1000, 1000))
                .unwrap();
        }
        let kernel = share(k);
        let b = idbox_core::IdentityBox::create(kernel, "Visitor", Cred::new(1000, 1000))
            .unwrap();
        let (code, _) = b
            .run("script", |ctx| {
                let r = run_script(
                    ctx,
                    b"#!guestscript\nassert-denied /home/op/secret\necho contained\n",
                );
                assert_eq!(r.output, "contained\n");
                r.code
            })
            .unwrap();
        assert_eq!(code, 0);
    }

    #[test]
    fn step_limit_stops_runaway_scripts() {
        let (r, _) = ctx_run(
            "#!guestscript\n\
             repeat 2000000\n\
             set X 1\n\
             end\n",
        );
        assert_eq!(r.code, 1);
        assert!(r.output.contains("step limit"));
    }

    #[test]
    fn is_script_detection() {
        assert!(is_script(b"#!guestscript\necho hi\n"));
        assert!(!is_script(b"#!guest sim\n"));
        assert!(!is_script(b"ELF..."));
    }
}
