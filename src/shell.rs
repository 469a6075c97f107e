//! A small interactive shell over an identity box — the moral
//! equivalent of the paper's `parrot_identity_box Freddy tcsh` session
//! (Figure 2). Commands execute as trapped guest syscalls; every ACL
//! check, denial, and passwd rewrite behaves exactly as for any other
//! boxed program.
//!
//! The logic lives here (testable, string in / string out); the
//! `idbox_shell` binary wraps it around stdin.

use idbox_acl::{Acl, Rights};
use idbox_core::IdentityBox;
use idbox_interpose::{GuestCtx, SharedKernel, Supervisor};
use idbox_kernel::Pid;
use idbox_types::{Errno, SysResult, ACL_FILE_NAME};
use idbox_vfs::FileKind;

/// One boxed shell session.
pub struct BoxShell {
    supervisor: Supervisor,
    pid: Pid,
    identity: String,
}

impl BoxShell {
    /// Open a session inside `ibox`.
    pub fn new(ibox: &IdentityBox) -> SysResult<Self> {
        let pid = ibox.spawn_process("idbox-shell")?;
        Ok(BoxShell {
            supervisor: ibox.supervisor(),
            pid,
            identity: ibox.identity().to_string(),
        })
    }

    /// The boxed identity (for the prompt).
    pub fn identity(&self) -> &str {
        &self.identity
    }

    /// The shared kernel (for host-side inspection in tests).
    pub fn kernel(&self) -> &SharedKernel {
        self.supervisor.kernel()
    }

    /// Execute one command line; returns the output text. Errors are
    /// reported in the output, shell-style, never as `Err` (only a
    /// broken session errors).
    pub fn exec_line(&mut self, line: &str) -> String {
        let words: Vec<&str> = line.split_whitespace().collect();
        let Some((&cmd, args)) = words.split_first() else {
            return String::new();
        };
        let mut ctx = GuestCtx::new(&mut self.supervisor, self.pid);
        match run_command(&mut ctx, cmd, args) {
            Ok(out) => out,
            Err(e) => format!("{cmd}: {}\n", e.describe()),
        }
    }
}

fn mode_string(kind: FileKind, mode: u16) -> String {
    let type_char = match kind {
        FileKind::Dir => 'd',
        FileKind::Symlink => 'l',
        FileKind::File => '-',
    };
    let mut s = String::new();
    s.push(type_char);
    for shift in [6u16, 3, 0] {
        let triad = (mode >> shift) & 7;
        s.push(if triad & 4 != 0 { 'r' } else { '-' });
        s.push(if triad & 2 != 0 { 'w' } else { '-' });
        s.push(if triad & 1 != 0 { 'x' } else { '-' });
    }
    s
}

fn run_command(ctx: &mut GuestCtx<'_>, cmd: &str, args: &[&str]) -> SysResult<String> {
    let arg = |i: usize| -> SysResult<&str> {
        args.get(i).copied().ok_or(Errno::EINVAL)
    };
    Ok(match cmd {
        "help" => HELP.to_string(),
        "whoami" => format!("{}\n", ctx.get_user_name()?),
        "pwd" => format!("{}\n", ctx.getcwd()?),
        "cd" => {
            ctx.chdir(arg(0)?)?;
            String::new()
        }
        "ls" => {
            let (long, path) = match args {
                ["-l"] => (true, "."),
                ["-l", p] => (true, *p),
                [p] => (false, *p),
                [] => (false, "."),
                _ => return Err(Errno::EINVAL),
            };
            let mut out = String::new();
            for e in ctx.readdir(path)? {
                if e.name == "." || e.name == ".." {
                    continue;
                }
                if long {
                    let st = ctx.lstat(&format!("{path}/{}", e.name))?;
                    out.push_str(&format!(
                        "{} {:>4} {:>8} {}\n",
                        mode_string(st.kind, st.mode),
                        st.nlink,
                        st.size,
                        e.name
                    ));
                } else {
                    out.push_str(&e.name);
                    out.push('\n');
                }
            }
            out
        }
        "cat" => {
            let data = ctx.read_file(arg(0)?)?;
            let mut s = String::from_utf8_lossy(&data).into_owned();
            if !s.ends_with('\n') && !s.is_empty() {
                s.push('\n');
            }
            s
        }
        "write" => {
            let path = arg(0)?;
            let mut text = args[1..].join(" ");
            text.push('\n');
            ctx.write_file(path, text.as_bytes())?;
            String::new()
        }
        "mkdir" => {
            ctx.mkdir(arg(0)?, 0o755)?;
            String::new()
        }
        "rmdir" => {
            ctx.rmdir(arg(0)?)?;
            String::new()
        }
        "rm" => {
            ctx.unlink(arg(0)?)?;
            String::new()
        }
        "mv" => {
            ctx.rename(arg(0)?, arg(1)?)?;
            String::new()
        }
        "cp" => {
            let data = ctx.read_file(arg(0)?)?;
            ctx.write_file(arg(1)?, &data)?;
            String::new()
        }
        "ln" => match args {
            ["-s", target, link] => {
                ctx.symlink(target, link)?;
                String::new()
            }
            [old, new] => {
                ctx.link(old, new)?;
                String::new()
            }
            _ => return Err(Errno::EINVAL),
        },
        "stat" => {
            let st = ctx.stat(arg(0)?)?;
            format!(
                "ino={} kind={:?} mode={:o} nlink={} size={} mtime={}\n",
                st.ino.0, st.kind, st.mode, st.nlink, st.size, st.mtime
            )
        }
        "getacl" => {
            let dir = args.first().copied().unwrap_or(".");
            let data = ctx.read_file(&format!("{dir}/{ACL_FILE_NAME}"))?;
            String::from_utf8_lossy(&data).into_owned()
        }
        // grant <dir> <subject> <rights>: extend a directory's ACL (the
        // visitor needs the A right there, enforced by the box).
        "grant" => {
            let (dir, subject, rights) = (arg(0)?, arg(1)?, arg(2)?);
            let rights = Rights::parse_letters(rights).map_err(|_| Errno::EINVAL)?;
            let acl_path = format!("{dir}/{ACL_FILE_NAME}");
            let current = ctx.read_file(&acl_path)?;
            let mut acl =
                Acl::parse(&String::from_utf8_lossy(&current)).map_err(|_| Errno::EIO)?;
            acl.set(subject, rights);
            ctx.write_file(&acl_path, acl.to_text().as_bytes())?;
            String::new()
        }
        // run <script>: execute a staged GuestScript program in a child.
        "run" => {
            let path = arg(0)?.to_string();
            ctx.exec(&path)?;
            let image = ctx.read_file(&path)?;
            if !idbox_workloads::is_script(&image) {
                return Err(Errno::ENOSYS);
            }
            ctx.run_child(move |c| {
                let r = idbox_workloads::run_script(c, &image);
                let _ = c.write_file("script.out", r.output.as_bytes());
                r.code
            })?;
            let (_, code) = ctx.wait()?;
            let out = ctx.read_file("script.out").unwrap_or_default();
            format!("{}(exit {code})\n", String::from_utf8_lossy(&out))
        }
        _ => return Err(Errno::ENOSYS),
    })
}

const HELP: &str = "\
commands:
  whoami | pwd | cd DIR | ls [-l] [DIR] | cat FILE | stat PATH
  write FILE TEXT... | cp SRC DST | mv OLD NEW | rm FILE
  mkdir DIR | rmdir DIR | ln [-s] TARGET LINK
  getacl [DIR] | grant DIR SUBJECT RIGHTS
  run SCRIPT    (execute a staged #!guestscript program)
  help | exit
";

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_interpose::share;
    use idbox_kernel::{Account, Kernel};
    use idbox_vfs::Cred;

    fn shell() -> BoxShell {
        let mut k = Kernel::new();
        k.accounts_mut().add(Account::new("op", 1000, 1000)).unwrap();
        {
            let root = k.vfs().root();
            k.vfs().mkdir(root, "/home/op", 0o700, &Cred::ROOT).unwrap();
            k.vfs().chown(root, "/home/op", 1000, 1000, &Cred::ROOT).unwrap();
            k.vfs()
                .write_file(root, "/home/op/secret", b"s", &Cred::new(1000, 1000))
                .unwrap();
        }
        let kernel = share(k);
        let b = IdentityBox::create(kernel, "Freddy", Cred::new(1000, 1000)).unwrap();
        BoxShell::new(&b).unwrap()
    }

    #[test]
    fn whoami_and_pwd() {
        let mut sh = shell();
        assert_eq!(sh.exec_line("whoami"), "Freddy\n");
        assert_eq!(sh.exec_line("pwd"), "/home/boxes/Freddy\n");
        assert_eq!(sh.identity(), "Freddy");
    }

    #[test]
    fn file_lifecycle() {
        let mut sh = shell();
        assert_eq!(sh.exec_line("write notes.txt hello shell"), "");
        assert_eq!(sh.exec_line("cat notes.txt"), "hello shell\n");
        assert_eq!(sh.exec_line("cp notes.txt copy.txt"), "");
        assert_eq!(sh.exec_line("mv copy.txt moved.txt"), "");
        let ls = sh.exec_line("ls");
        assert!(ls.contains("notes.txt") && ls.contains("moved.txt"));
        assert_eq!(sh.exec_line("rm moved.txt"), "");
        assert!(!sh.exec_line("ls").contains("moved.txt"));
    }

    #[test]
    fn ls_long_format() {
        let mut sh = shell();
        sh.exec_line("write f.txt x");
        sh.exec_line("mkdir d");
        let out = sh.exec_line("ls -l");
        assert!(out.contains("-rw-r--r--"), "{out}");
        assert!(out.contains("drwxr-xr-x"), "{out}");
    }

    #[test]
    fn denial_reads_like_a_shell_error() {
        let mut sh = shell();
        let out = sh.exec_line("cat /home/op/secret");
        assert_eq!(out, "cat: permission denied\n");
        let out = sh.exec_line("cat /does/not/exist");
        assert_eq!(out, "cat: no such file or directory\n");
    }

    #[test]
    fn cd_and_relative_paths() {
        let mut sh = shell();
        sh.exec_line("mkdir sub");
        assert_eq!(sh.exec_line("cd sub"), "");
        assert_eq!(sh.exec_line("pwd"), "/home/boxes/Freddy/sub\n");
        sh.exec_line("write here.txt data");
        assert_eq!(sh.exec_line("cd .."), "");
        assert_eq!(sh.exec_line("cat sub/here.txt"), "data\n");
    }

    #[test]
    fn getacl_and_grant() {
        let mut sh = shell();
        let acl = sh.exec_line("getacl");
        assert!(acl.contains("Freddy rwldax"), "{acl}");
        assert_eq!(sh.exec_line("grant . George rl"), "");
        let acl = sh.exec_line("getacl");
        assert!(acl.contains("George rl"), "{acl}");
        // Bad rights letters are rejected cleanly.
        let out = sh.exec_line("grant . George zz");
        assert!(out.starts_with("grant:"), "{out}");
    }

    #[test]
    fn run_guestscript() {
        let mut sh = shell();
        sh.exec_line("write job.x #!guestscript");
        // Build the script via the host side (multi-line through write
        // is awkward; use the box directly).
        let kernel = sh.kernel();
        let root = kernel.vfs().root();
        kernel
            .vfs()
            .write_file(
                root,
                "/home/boxes/Freddy/job.x",
                b"#!guestscript\necho scripted hello\nexit 0\n",
                &Cred::new(1000, 1000),
            )
            .unwrap();
        kernel
            .vfs()
            .chmod(root, "/home/boxes/Freddy/job.x", 0o755, &Cred::new(1000, 1000))
            .unwrap();
        let out = sh.exec_line("run job.x");
        assert_eq!(out, "scripted hello\n(exit 0)\n");
    }

    #[test]
    fn unknown_command() {
        let mut sh = shell();
        let out = sh.exec_line("frobnicate");
        assert!(out.starts_with("frobnicate:"), "{out}");
        assert!(sh.exec_line("help").contains("whoami"));
        assert_eq!(sh.exec_line(""), "");
    }

    #[test]
    fn symlink_and_stat() {
        let mut sh = shell();
        sh.exec_line("write target.txt data");
        assert_eq!(sh.exec_line("ln -s target.txt alias"), "");
        assert_eq!(sh.exec_line("cat alias"), "data\n");
        let st = sh.exec_line("stat target.txt");
        assert!(st.contains("size=5"), "{st}");
    }
}
