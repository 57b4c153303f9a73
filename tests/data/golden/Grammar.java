package com.example.app;

import java.util.*;
import java.util.List;

@SuppressWarnings("unchecked")
public final class Grammar<T extends Comparable<T>> extends Base implements Runnable, Cloneable {
    ;
    private static final int LIMIT = 10, OTHER[] = {1, 2}, EMPTY;
    protected int[][] grid = new int[3][4];
    java.util.Map<String, List<Integer>> index;
    float scale;
    boolean ready;

    @Override
    public void run() {}

    public Grammar(int size) {
        this.size = size;
        super.init();
    }

    abstract int measure(String... parts) throws Exception, java.io.IOException;

    static long sum(int[] xs, int n[]) {
        long total = 0L;
        final int k = 3, m[] = {1, {2}};
        var list = new ArrayList<String>();
        String[] words = new String[]{"a", "b"};
        int[] sized = new int[n.length][];
        double ratio = (double) total / 2.0d;
        char c = 'x';
        boolean flag = xs instanceof Object && true || false;
        Object o = null;
        Object kind = String.class;
        List<String> names = new ArrayList<>();
        for (final int x : xs) { total += x; }
        for (String w : words) total++;
        for (int i = 0; i < n.length; i++) { continue; }
        for (i = 0; i < 3; i++) ;
        for (;;) { break; }
        while (true) { if (ready) continue outer; break outer; }
        while (total > 0) { total -= 1; if (total == 5) break; }
        do { total++; } while (total < 100);
        switch (k) { case 1: total = 1; break; default: total = 0; }
        try {
            risky();
        } catch (IllegalStateException | NullPointerException e) {
            throw new RuntimeException(e);
        } finally {
            cleanup();
        }
        System.out.println("hi" + c);
        int h = 0x1F, f = (int) 2.5f;
        h = f = -h;
        names.add(String.valueOf(h)).toString();
        helper(!flag, ~h, ++h, h--);
        new Grammar(3).run();
        return total > 0 ? total : -total;
    }

    interface Shape { double area(); }

    class Inner { Inner() {} }
}

interface Visitor<R> { R visit(Node n); }
