"""Build file of the benchmark: compiles the program and the benchmark.

The program's sources (src/main/scala) and the benchmark's (perfbench/src)
are compiled against the Spark jars that the repository's build.sbt names,
with the Scala compiler among them, into
.bench_build/perfbench/classes-<digest>/. The digest covers every source
file, so an unchanged tree is not rebuilt.
"""

import glob
import hashlib
import os
import re
import shutil
import subprocess
import sys

# JDK 17 module openings Spark needs (as in Spark's own launcher).
ADD_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def jvm_flags(repo):
    """Keeps the JVM's scratch files inside the checkout's build directory."""
    tmp = os.path.join(repo, ".bench_build", "perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return ["-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}"]


def java():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def spark_jars(repo):
    """The Spark jars the repository's build.sbt compiles against, else
    those of the Spark distribution at $SPARK_HOME."""
    with open(os.path.join(repo, "build.sbt")) as f:
        declared = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', f.read())
    for jars in (declared and declared.group(1),
                 os.path.join(os.environ.get("SPARK_HOME", ""), "jars")):
        if jars and glob.glob(os.path.join(jars, "spark-sql_*.jar")):
            return os.path.join(jars, "*")
    sys.exit("perfbench: no Spark jars found; set SPARK_HOME to a Spark distribution")


def sources(root):
    return sorted(glob.glob(os.path.join(root, "**", "*.scala"), recursive=True))


def build(repo, bench_dir):
    """Compiles when needed; returns (classpath, source digest)."""
    main_src = sources(os.path.join(repo, "src", "main", "scala"))
    bench_src = sources(os.path.join(bench_dir, "src"))
    if not main_src:
        sys.exit("perfbench: no program sources under src/main/scala")
    h = hashlib.sha256()
    for f in main_src + bench_src:
        h.update(os.path.relpath(f, repo).encode() + b"\0")
        h.update(open(f, "rb").read() + b"\0")
    digest = h.hexdigest()
    out = os.path.join(repo, ".bench_build", "perfbench", f"classes-{digest[:16]}")
    jars = spark_jars(repo)
    classpath = os.pathsep.join([out, jars])
    if os.path.isdir(out):
        return classpath, digest

    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    # scalac reads long argument lists from an @file
    args = os.path.join(tmp, "sources.txt")
    with open(args, "w") as f:
        f.write("\n".join(main_src + bench_src))
    code = subprocess.call(
        [java(), *jvm_flags(repo), "-Xmx2g", "-Xss16m", "-cp", jars, "scala.tools.nsc.Main",
         "-nowarn", "-d", tmp, "-cp", jars, f"@{args}"],
        stdout=sys.stderr)
    if code != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit(f"perfbench: compilation failed with code {code}")
    os.remove(args)
    os.rename(tmp, out)
    return classpath, digest
